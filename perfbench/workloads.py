"""The benchmark's three workloads: inputs, one op, and its output check.

Each workload builds its inputs from the workload seed, runs one op (one
analysis) per job, and checks the op's output.  The checks never pin report
bytes or hashes across commits, because a change to the order random
numbers are drawn in changes them; they compare against closed-form oracles
from ``uncpool.model``, against Monte Carlo error bands, and against a
repeat of the same job within the run.

The untimed pipelines call only names that ``uncpool/__init__.py`` exports,
plus ``io.render_report``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import uncpool as up
from uncpool import model
from uncpool.io import render_report

HERE = Path(__file__).resolve().parent

#: Longest a single CLI op may take before it is killed and counted failed.
CLI_TIMEOUT_S = 60.0


class OpFailed(Exception):
    """An op exited non-zero or its output failed a check."""


def _seed(seed: int, *key: int) -> int:
    """A 31-bit seed for sub-stream ``key`` of the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint32)[0]) >> 1


def finite_tree(obj) -> bool:
    """True when every number in a parsed JSON value is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(finite_tree(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite_tree(v) for v in obj)
    return True


class Workload:
    """One workload: set-up, a stream of jobs, one op per job, checks."""

    #: False when ops run in child processes, which trace themselves.
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs and run one untimed, checked warm-up op."""
        job = next(self.jobs(warmup=True))
        self.check(job, self.run(job))

    def prepare(self) -> None:
        """Build check data that the op timings and set-up time exclude."""

    def jobs(self, warmup: bool = False):
        raise NotImplementedError

    def run(self, job, tracer=None):
        raise NotImplementedError

    def check(self, job, output) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """Run-level checks; returns their details, with ``ok`` set."""
        return {"ok": True}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# cli-paper: the six reference panels through `python -m uncpool.cli`
# ---------------------------------------------------------------------------

LABELS = ("SAHIE", "HS", "CDC")
# Dixie with CDC SE x {0.5, 1, 2}; Orange with SAHIE SE {0.036, 0.089, 0.179}
# (the acceptance suite's panels, tests/conftest.py).
PANELS = (
    [(f"dixie_{k}", (0.254, 0.361, 0.359), (0.014, 0.028, 0.028 * k)) for k in (0.5, 1.0, 2.0)]
    + [(f"orange_{s}", (0.294, 0.257, 0.179), (s, 0.018, 0.009)) for s in (0.036, 0.089, 0.179)]
)
COMMANDS = ("dpm", "pool", "pool-all")   # dpm first: see README, op_tail_s
CLI_R = 2000                             # the CLI default grid size
CLI_THRESHOLD = 0.001                    # the CLI default display threshold


class CliPaper(Workload):
    in_process = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        src = str(HERE.parent / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.first: dict[int, bytes] = {}
        self.oracle: dict[str, tuple[dict, np.ndarray]] = {}
        self.inputs = workdir / "inputs"
        self.reports = workdir / "reports"

    def setup(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.reports.mkdir(parents=True, exist_ok=True)
        for name, y, se in PANELS:
            rows = ["label,estimate,se"] + [f"{lab},{yi!r},{si!r}"
                                            for lab, yi, si in zip(LABELS, y, se)]
            (self.inputs / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        super().setup()

    def jobs(self, warmup=False):
        if warmup:                          # one pool run on its own seed
            return iter([(-1, PANELS[0][0], "pool", _seed(self.seed, 1))])
        specs = [(p[0], c) for p in PANELS for c in COMMANDS]
        return itertools.cycle([(i, panel, cmd, _seed(self.seed, 0, i))
                                for i, (panel, cmd) in enumerate(specs)])

    def run(self, job, tracer=None):
        key, panel, cmd, seed = job
        out = self.reports / f"{panel}-{cmd}-{key}.json"
        argv = [cmd, "--input", str(self.inputs / f"{panel}.csv"),
                "--seed", str(seed), "--output", str(out)]
        if tracer is None:
            args = [sys.executable, "-m", "uncpool.cli", *argv]
        else:
            spans = self.workdir / "child_spans.json"
            spans.unlink(missing_ok=True)
            mode = "memory" if tracer.memory else "time"
            args = [sys.executable, str(HERE / "cli_launch.py"), str(spans), mode, *argv]
        try:
            proc = subprocess.run(args, env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise OpFailed(f"{cmd} {panel}: no exit within {CLI_TIMEOUT_S:.0f} s") from None
        if tracer is not None and spans.exists():
            child = json.loads(spans.read_text(encoding="utf-8"))
            tracer.adopt(child["spans"])
            tracer.absent = sorted(set(tracer.absent) | set(child["absent"]))
            tracer.probe_errors.extend(child["probe_errors"])
        if proc.returncode != 0:
            raise OpFailed(f"{cmd} {panel}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return out

    def check(self, job, output):
        key, panel, cmd, _ = job
        raw = output.read_bytes()
        doc = json.loads(raw)
        if not finite_tree(doc):
            raise OpFailed(f"{cmd} {panel}: non-finite value in report")
        if key in self.first and self.first[key] != raw:
            raise OpFailed(f"{cmd} {panel}: repeat with the same seed changed the report")
        self.first.setdefault(key, raw)
        if cmd == "pool" and panel in self.oracle:
            self._check_pool(panel, doc["results"]["summary"])

    def prepare(self):
        for name, y, se in PANELS:
            self.oracle[name] = _pool_oracle(y, se)

    def _check_pool(self, panel, summary):
        probs, means = self.oracle[panel]
        listed = {pm["partition"]: pm["prob"] for pm in summary["partition_probs"]}
        want = {k for k, p in probs.items() if p >= CLI_THRESHOLD + 1e-9}
        maybe = {k for k, p in probs.items() if abs(p - CLI_THRESHOLD) <= 1e-9}
        if not want <= set(listed) <= want | maybe:
            raise OpFailed(f"pool {panel}: listed partitions {sorted(listed)}, "
                           f"oracle has {sorted(want)} above the threshold")
        for k, p in listed.items():
            if abs(p - probs[k]) > 1e-9:
                raise OpFailed(f"pool {panel}: p({k}) = {p!r}, oracle {probs[k]!r}")
        got = np.array([row["post_mean"] for row in summary["rows"]])
        if not np.all(np.abs(got - means) <= 1e-9):
            raise OpFailed(f"pool {panel}: posterior means {got}, oracle {means}")

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _pool_oracle(y, se) -> tuple[dict, np.ndarray]:
    """Partition probabilities and posterior means from the scalar model.

    Evaluates ``model.log_joint_kernel`` and ``model.conditional_moments``
    cell by cell over all 5 x R (partition, delta2) cells, with the grid
    built here from its defining formula, equal 1/R cell masses and a
    uniform partition prior.
    """
    data = up.SurveyData(LABELS, np.array(y), np.array(se) ** 2)
    parts = [up.Partition(a) for a in
             ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2))]
    d2 = [math.tan((j - 0.5) * (math.pi / 2.0) / CLI_R) ** 2 for j in range(1, CLI_R + 1)]
    log_pg = -math.log(len(parts))
    lm = np.array([[model.log_joint_kernel(data, p, x, log_pg) for x in d2] for p in parts])
    w = np.exp(lm - lm.max())
    w /= w.sum()
    means = np.zeros(3)
    for g, p in enumerate(parts):
        for j, x in enumerate(d2):
            means += w[g, j] * model.conditional_moments(data, p, x).mean
    probs = {p.notation(): float(w[g].sum()) for g, p in enumerate(parts)}
    return probs, means


# ---------------------------------------------------------------------------
# sim-l3: the reference L=3 simulation study in small run_scenario calls
# ---------------------------------------------------------------------------

SIM_REPS = 10          # replicates per op
SIM_SHIFTS = (0, 4, 8)  # delta_shift in units of DELTA_STEP
# Interval coverage of the reference study at each shift, surveys 1..3, from
# 500 replicates each (TABLE5 in tests/test_acceptance.py).  The method's
# intervals over-cover (about 0.96 overall), so the band is centred here and
# not at the nominal 0.95, which a run of ~10^4 intervals would reject.
SIM_REF_COVERAGE = {0: (0.973, 0.958, 0.960), 4: (0.984, 0.941, 0.939),
                    8: (0.971, 0.958, 0.952)}
SIM_REF_REPS = 500


class SimL3(Workload):
    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.covered = 0.0
        self.reps = dict.fromkeys(SIM_SHIFTS, 0)   # replicates checked per shift

    def jobs(self, warmup=False):
        if warmup:
            return iter([(SIM_SHIFTS[0], _seed(self.seed, 3))])
        return ((SIM_SHIFTS[i % len(SIM_SHIFTS)], _seed(self.seed, 2, i))
                for i in itertools.count())

    def run(self, job, tracer=None):
        shift, base_seed = job
        scenario = up.SimScenario(delta_shift=shift * up.DELTA_STEP, reps=SIM_REPS,
                                  r=2000, b=5000, base_seed=base_seed)
        return up.run_scenario(scenario, n_jobs=1)

    def check(self, job, report):
        shift, _ = job
        d = report.to_dict()
        if not finite_tree(d):
            raise OpFailed(f"shift {shift}: non-finite value in the simulation report")
        cov = report.coverage
        if len(cov) != 3 or not all(0.0 <= c <= 1.0 for c in cov):
            raise OpFailed(f"shift {shift}: coverage {cov} outside [0, 1]")
        self.covered += sum(cov) * SIM_REPS
        self.reps[shift] += SIM_REPS

    def finish(self):
        """Overall coverage must lie within 4 SE of the reference coverage.

        The SE combines the run's binomial error with that of the reference
        values, each an estimate from SIM_REF_REPS replicates.
        """
        n = 3 * sum(self.reps.values())
        if n == 0:
            return {"ok": True}
        expected = var_run = var_ref = 0.0
        for k, reps in self.reps.items():
            for p in SIM_REF_COVERAGE[k]:
                expected += reps * p
                var_run += reps * p * (1.0 - p)
                var_ref += reps ** 2 * p * (1.0 - p) / SIM_REF_REPS
        observed, expected = self.covered / n, expected / n
        se = math.sqrt(var_run + var_ref) / n
        return {"ok": abs(observed - expected) <= 4.0 * se, "coverage": observed,
                "reference": expected, "se": se, "intervals": n}


# ---------------------------------------------------------------------------
# wide-l8: the library pool pipeline at L=8, R=200
# ---------------------------------------------------------------------------

WIDE_L, WIDE_R, WIDE_B = 8, 200, 5000
WIDE_GROUPS = (0, 0, 0, 1, 1, 1, 2, 2)
WIDE_CENTRES = (0.20, 0.32, 0.45)
WIDE_SE = (0.010, 0.020, 0.040, 0.015, 0.030, 0.010, 0.025, 0.020)
WIDE_DATASETS = 4      # data sets per run, cycled
WIDE_CELLS = 20        # lattice cells checked against the scalar kernel


class WideL8(Workload):
    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 6]))
        centres = np.array(WIDE_CENTRES)[list(WIDE_GROUPS)]
        se = np.array(WIDE_SE)
        self.data = [up.SurveyData([f"s{i + 1}" for i in range(WIDE_L)],
                                   rng.normal(centres, se), se ** 2)
                     for _ in range(WIDE_DATASETS)]
        self.cells = list(zip(rng.integers(0, up.bell_number(WIDE_L), WIDE_CELLS).tolist(),
                              rng.integers(0, WIDE_R, WIDE_CELLS).tolist()))
        super().setup()

    def jobs(self, warmup=False):
        if warmup:
            return iter([(0, _seed(self.seed, 8, 0), _seed(self.seed, 8, 1))])
        return ((i % WIDE_DATASETS, _seed(self.seed, 7, i, 0), _seed(self.seed, 7, i, 1))
                for i in itertools.count())

    def run(self, job, tracer=None):
        d, draw_seed, pool_seed = job
        data = self.data[d]
        space = up.enumerate_partitions(WIDE_L)
        grid = up.build_grid(WIDE_R)
        jp = up.evaluate_joint(data, space, grid)
        pa = up.pool_all(data, grid, b=WIDE_B, seed=pool_seed, jp=jp)
        draws = up.sample_mu(data, jp, WIDE_B, draw_seed)
        table = up.summarize(data, jp, draws, pool_all=pa)
        doc = up.ReportDocument(kind="pool", input=up.input_echo(data),
                                config={"r": WIDE_R, "b": WIDE_B, "seed": draw_seed},
                                results={"summary": table.to_dict()})
        return data, jp, draws, table, render_report(doc, "json")

    def check(self, job, output):
        data, jp, draws, table, text = output
        if not finite_tree(json.loads(text)):
            raise OpFailed("non-finite value in the L=8 report")
        log_pg = -math.log(jp.space.g)
        diffs = [float(jp.log_mass[g, j]) - model.log_joint_kernel(
                     data, jp.space.partitions[g], float(jp.grid.deltas2[j]), log_pg)
                 for g, j in self.cells]
        if max(diffs) - min(diffs) > 1e-9:
            raise OpFailed(f"lattice disagrees with log_joint_kernel beyond a constant "
                           f"(spread {max(diffs) - min(diffs):.3g})")
        total = float(up.marginal_g(jp).sum())
        if abs(total - 1.0) > 1e-9:
            raise OpFailed(f"partition probabilities sum to {total!r}")
        mc_se = draws.mu.std(axis=0, ddof=1) / math.sqrt(draws.b)
        gap = np.abs(np.array(table.post_mean) - draws.mu.mean(axis=0))
        if np.any(gap > 5.0 * mc_se):
            raise OpFailed(f"exact means differ from draw means by {np.max(gap / mc_se):.2f} MC SE")


WORKLOADS = {"cli-paper": CliPaper, "sim-l3": SimL3, "wide-l8": WideL8}
