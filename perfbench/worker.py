"""Runs one workload in a fresh interpreter: set up, report READY, then run.

Usage (run.py starts it with src/ on PYTHONPATH):

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

After set-up (importing uncpool, generating inputs, one untimed warm-up op)
the worker prints ``READY`` and reads one line from stdin.  On ``run`` it
runs ops one after another for SECONDS (a closed loop with one client) and
prints one JSON line: op latencies when TRACE is 0, per-layer metrics when
TRACE is 1.  Any other line makes it exit without running.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import numpy
import uncpool

from tracer import Tracer, self_times
from workloads import WORKLOADS, OpFailed

# Per-layer self times, in seconds per op: metric -> spans whose self time
# it sums.  The subset kernels nest under q_matrix and count with it.
SELF_METRICS = {
    "cli.import_s": ("cli.import",),
    "cli.command_s": ("cli.main", "cli.run_command", "cli.build_parser"),
    "io.parse_s": ("io.parse_input",),
    "io.render_s": ("io.render_report",),
    "kernels.dpm_chain_s": ("kernels.dpm_chain",),
    "baselines.dpm_gibbs_s": ("baselines.dpm_gibbs",),
    "kernels.q_matrix_s": ("kernels.q_matrix", "kernels.subset_q_terms",
                           "kernels.partition_subset_ids"),
    "grid.evaluate_joint_s": ("grid.evaluate_joint",),
    "grid.moments_s": ("grid.exact_mixture_moments",),
    "grid.summarize_s": ("grid.summarize",),
    "grid.sample_s": ("grid.sample_mu",),
    "partitions.enumerate_s": ("partitions.enumerate_partitions",),
    "partitions.array_s": ("partitions.assignment_array",),
    "baselines.pool_all_s": ("baselines.pool_all",),
    "simulation.run_scenario_s": ("simulation.run_scenario",),
}

# Calls per op: metric -> span.
CALL_METRICS = {
    "cli.import_calls": "cli.import",
    "cli.command_calls": "cli.run_command",
    "io.parse_calls": "io.parse_input",
    "io.render_calls": "io.render_report",
    "kernels.dpm_chain_calls": "kernels.dpm_chain",
    "baselines.dpm_gibbs_calls": "baselines.dpm_gibbs",
    "kernels.q_matrix_calls": "kernels.q_matrix",
    "grid.evaluate_joint_calls": "grid.evaluate_joint",
    "grid.moments_calls": "grid.exact_mixture_moments",
    "grid.summarize_calls": "grid.summarize",
    "grid.sample_calls": "grid.sample_mu",
    "partitions.enumerate_calls": "partitions.enumerate_partitions",
    "partitions.array_calls": "partitions.assignment_array",
    "baselines.pool_all_calls": "baselines.pool_all",
    "simulation.run_scenario_calls": "simulation.run_scenario",
}


def attempt(wl, job, errors, tracer=None, op_id=None):
    """Run and check one op; returns its latency, or None when it failed.

    With a tracer, the op runs inside an ``op`` span with the wrappers
    installed, and the span's duration is the latency.
    """
    if tracer is not None and wl.in_process:
        tracer.install()
    span = tracer.open("op", op=op_id) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = wl.run(job, tracer)
        latency = time.perf_counter() - t0
    except OpFailed as exc:
        errors.append(str(exc))
        return None
    except Exception:  # an op that raises counts as failed; keep measuring
        errors.append(traceback.format_exc(limit=4))
        return None
    finally:
        if span is not None:
            tracer.close(span)
            if wl.in_process:
                tracer.uninstall()
    if span is not None:
        latency = span["end"] - span["start"]
    try:
        wl.check(job, out)
    except OpFailed as exc:
        errors.append(str(exc))
        return None
    return latency


def timed_loop(wl, seconds: float) -> dict:
    latencies, errors = [], []
    attempted = 0
    jobs = wl.jobs()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        attempted += 1
        latency = attempt(wl, next(jobs), errors)
        if latency is not None:
            latencies.append(latency)
    return {"attempted": attempted, "failed": attempted - len(latencies),
            "errors": errors[:5], "latencies": latencies, "peak_rss_mb": wl.peak_rss_mb()}


def traced_loop(wl, seconds: float, workdir: Path) -> dict:
    """Run each job traced and untraced, alternating which goes first.

    First, the warm-up job runs once, untimed, under a memory tracer; it
    gives ``partitions.peak_mb`` and nothing else.
    """
    tracer, probe = Tracer(), Tracer(memory=True)
    errors, pairs = [], []
    attempted = 1
    failed = int(attempt(wl, next(wl.jobs(warmup=True)), errors, probe, -1) is None)
    jobs = wl.jobs()
    start = time.perf_counter()
    op_id = 0
    while time.perf_counter() - start < seconds:
        job = next(jobs)
        walls = {}
        for traced in ((True, False) if op_id % 2 == 0 else (False, True)):
            attempted += 1
            latency = attempt(wl, job, errors, tracer if traced else None, op_id)
            if latency is None:
                failed += 1
            else:
                walls[traced] = latency
        if len(walls) == 2:
            pairs.append((walls[True], walls[False]))
        op_id += 1
    tracer.dump(workdir / "spans.json")
    metrics, gap = layer_metrics(tracer.spans, pairs)
    peaks = [s["peak_bytes"] for s in probe.spans if "peak_bytes" in s]
    metrics["partitions.peak_mb"] = {"value": max(peaks, default=0) / 2 ** 20, "unit": "MB"}
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "metrics": metrics, "decomposition_gap_s": gap, "absent": tracer.absent,
            "probe_errors": sorted(set(tracer.probe_errors))}


def layer_metrics(spans: list[dict], pairs: list[tuple[float, float]]):
    """Per-op layer metrics from the traced ops' spans.

    Returns the metrics and the gap between the traced op time and the sum
    of every self time, which is zero up to rounding.
    """
    selfs = self_times(spans)
    ops = [s for s in spans if s["name"] == "op"]
    n_ops = max(len(ops), 1)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def self_sum(names):
        return sum(selfs[i] for name in names for i in by_name.get(name, ()))

    def inclusive(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, ()))

    def counts(name, key):
        return [spans[i].get("counts", {}).get(key, 0) for i in by_name.get(name, ())]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    m: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_METRICS.items():
        m[metric] = (self_sum(names) / n_ops, "s")
    mapped = {name for names in SELF_METRICS.values() for name in names} | {"op"}
    m["trace.other_spans_s"] = (self_sum(set(by_name) - mapped) / n_ops, "s")
    m["trace.unspanned_s"] = (self_sum(["op"]) / n_ops, "s")
    op_s = inclusive("op") / n_ops
    m["trace.op_s"] = (op_s, "s")
    m["trace.untraced_op_s"] = (mean([u for _, u in pairs]), "s")
    m["trace.overhead_s"] = (mean([t - u for t, u in pairs]), "s")
    for metric, name in CALL_METRICS.items():
        m[metric] = (len(by_name.get(name, ())) / n_ops, "count")

    reps = sum(counts("simulation.run_scenario", "reps"))
    m["simulation.replicate_s"] = (
        inclusive("simulation.run_scenario") / reps if reps else 0.0, "s")
    sweeps = sum(counts("baselines.dpm_gibbs", "sweeps"))
    m["kernels.dpm_sweeps"] = (sweeps / n_ops, "count")
    m["kernels.dpm_us_per_sweep"] = (
        1e6 * inclusive("kernels.dpm_chain") / sweeps if sweeps else 0.0, "us")
    # computed from array shapes at the span boundaries, not measured
    cells = mean(counts("grid.evaluate_joint", "cells"))
    m["partitions.g"] = (mean(counts("grid.evaluate_joint", "g")), "count")
    m["grid.cells"] = (cells, "count")
    m["grid.lattice_bytes"] = (8 * cells, "bytes")
    m["kernels.subset_terms"] = (mean(counts("kernels.subset_q_terms", "subset_terms")), "count")
    useful = [d / g for d, g in zip(counts("grid.sample_mu", "distinct_g"),
                                    counts("grid.sample_mu", "g")) if g]
    m["grid.sample_useful_ratio"] = (mean(useful), "ratio")

    layer_sum = sum(v for k, (v, _) in m.items() if k in SELF_METRICS) \
        + m["trace.other_spans_s"][0] + m["trace.unspanned_s"][0]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return metrics, layer_sum - op_s


def main() -> int:
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    workdir = Path(workdir)
    wl = WORKLOADS[workload](int(seed), workdir)
    wl.setup()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    wl.prepare()
    if trace == "1":
        result = traced_loop(wl, float(seconds), workdir)
    else:
        result = timed_loop(wl, float(seconds))
    result["run_checks"] = wl.finish()
    result["backend"] = uncpool.BACKEND
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
