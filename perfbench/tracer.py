"""Benchmark-side span recorder for uncpool.

The package itself is not instrumented.  ``Tracer.install`` wraps every
public module-level function of the traced layers, at every place a module
of the package holds a reference to it: ``cli`` and ``simulation`` import
names such as ``evaluate_joint`` directly, while ``grid`` reaches
``kernels.q_matrix`` through the module, so patching only the defining
module would miss calls.  ``PartitionSpace.assignment_array`` (a cached
property) is wrapped too, so its first access per space is a span.

Spans are kept in memory as plain dicts (name, start, end, parent index,
op id, and counts computed from the call's arguments and result) and
written out once when the run ends.  This module imports no numpy, so the
traced CLI launcher can time ``import uncpool.cli`` on its own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
import types

LAYERS = ("io", "partitions", "kernels", "grid", "baselines", "simulation", "cli")

#: Spans that a memory tracer runs under tracemalloc.  Tracing allocations
#: for every span slowed the L=8 pipeline about six-fold, mostly in
#: pure-Python code, so memory is measured only in the enumeration layer,
#: where the Bell(L) objects live, and only by a separate tracer: even there
#: tracemalloc slows enumeration about five-fold.
MEMORY_SPANS = ("partitions.enumerate_partitions", "partitions.assignment_array")

#: Names the per-layer metrics read.  A name missing from the package is
#: reported as absent instead of failing the run.
EXPECTED = (
    "io.parse_input", "io.render_report", "kernels.dpm_chain", "kernels.q_matrix",
    "kernels.subset_q_terms", "baselines.dpm_gibbs", "baselines.pool_all",
    "grid.evaluate_joint", "grid.exact_mixture_moments", "grid.summarize",
    "grid.sample_mu", "partitions.enumerate_partitions",
    "partitions.assignment_array", "simulation.run_scenario", "cli.run_command",
)


# -- counts computed at span boundaries from arguments and results ----------

def _probe_evaluate_joint(args, kwargs, result):
    g, r = result.log_mass.shape
    return {"g": g, "cells": g * r}


def _probe_subset_q_terms(args, kwargs, result):
    return {"subset_terms": int(result.size)}


def _probe_dpm_gibbs(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"sweeps": int(cfg.iterations)}


def _probe_sample_mu(args, kwargs, result):
    jp = args[1] if len(args) > 1 else kwargs["jp"]
    distinct = len(set(result.g_indices.tolist()))
    return {"distinct_g": distinct, "g": jp.space.g}


def _probe_run_scenario(args, kwargs, result):
    scenario = args[0] if args else kwargs["s"]
    return {"reps": int(scenario.reps)}


PROBES = {
    "grid.evaluate_joint": _probe_evaluate_joint,
    "kernels.subset_q_terms": _probe_subset_q_terms,
    "baselines.dpm_gibbs": _probe_dpm_gibbs,
    "grid.sample_mu": _probe_sample_mu,
    "simulation.run_scenario": _probe_run_scenario,
}


class Tracer:
    """Records nested spans for the ops of one traced run.

    With ``memory`` set, the MEMORY_SPANS run under tracemalloc and record
    their peak traced bytes; their times are then not representative.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.probe_errors: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, op=None) -> dict:
        if op is not None:
            self._op = op
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "op": self._op}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def adopt(self, child_spans: list[dict]) -> None:
        """Attach spans recorded in a child process under the open span.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so child timestamps are comparable with this process's.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in child_spans:
            s = dict(s, op=self._op)
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            self.spans.append(s)

    def _wrap(self, name: str, fn):
        tracer = self
        probe = PROBES.get(name)
        memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = memory and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
                if started:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if probe is not None:
                try:
                    span["counts"] = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tracer.probe_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        wrappers: dict[int, object] = {}
        found = set()
        for layer in LAYERS:
            mod = importlib.import_module(f"uncpool.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and id(obj) not in wrappers):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                    found.add(f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "uncpool" and not modname.startswith("uncpool."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        space_cls = getattr(sys.modules["uncpool.partitions"], "PartitionSpace", None)
        prop = vars(space_cls).get("assignment_array") if space_cls else None
        if isinstance(prop, functools.cached_property):
            wrapped = functools.cached_property(
                self._wrap("partitions.assignment_array", prop.func))
            wrapped.__set_name__(space_cls, "assignment_array")
            self._patch(space_cls, "assignment_array", wrapped)
            found.add("partitions.assignment_array")
        self.absent = [name for name in EXPECTED if name not in found]

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent,
                       "probe_errors": self.probe_errors}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out

