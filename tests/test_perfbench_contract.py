"""The benchmark's use of the library, checked without running the benchmark.

``perfbench/run.py`` exits 1 when any op fails its check or a probe fails,
and keeps nothing else of that run.  This test loads ``perfbench/workloads.py``
and ``perfbench/tracer.py`` read-only and runs each workload's checked
warm-up op, and for the two in-process workloads one checked op plain and
one under the tracer, so a library change that breaks the benchmark's
pipeline or its probes fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Names the tracer expects that the package no longer defines.
STALE = {"kernels.dpm_chain", "kernels.subset_q_terms", "baselines.pool_all"}


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``workloads`` and ``tracer`` modules, loaded without writing bytecode."""
    loaded = {}
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for name in ("workloads", "tracer"):
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                          PERFBENCH / f"{name}.py")
            loaded[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(loaded[name])
    finally:
        sys.dont_write_bytecode = dont_write
    return loaded


@pytest.mark.parametrize("name", ["cli-paper", "sim-l3", "wide-l8"])
def test_workload_setup_runs_its_checked_warmup(bench, name, tmp_path):
    bench["workloads"].WORKLOADS[name](1, tmp_path).setup()


@pytest.mark.parametrize("name", ["sim-l3", "wide-l8"])
def test_workload_ops_pass_their_checks_plain_and_traced(bench, name, tmp_path):
    wl = bench["workloads"].WORKLOADS[name](1, tmp_path)
    wl.setup()
    jobs = wl.jobs()
    job = next(jobs)
    wl.check(job, wl.run(job))
    job = next(jobs)
    tracer = bench["tracer"].Tracer()
    tracer.install()
    try:
        out = wl.run(job, tracer)
    finally:
        tracer.uninstall()
    wl.check(job, out)
    assert tracer.spans and tracer.probe_errors == []
    assert set(tracer.absent) <= STALE
