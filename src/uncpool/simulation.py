"""Replicated sampling study of the three-source pooling pipeline.

Each replicate draws three estimates (one noisy source and two precise
sources, the third shifted by a configurable separation), runs the full grid
posterior, and records partition probabilities, posterior moments, and
whether each equal-tailed 95% interval covers the truth.  Replicate seeds
derive from (base_seed, rep_index), so results are independent of execution
order.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
from dataclasses import dataclass, asdict, fields
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, ParseError
from .grid import (DeltaGrid, build_grid, covers95, evaluate_joint, exact_mixture_moments,
                   marginal_g)
from .io import _read_lines
from .model import SurveyData
from .partitions import PartitionSpace, display_label_l3, enumerate_partitions

#: Separation step used in the reference study; scenarios take 0, 4 and 8
#: multiples of this constant.
DELTA_STEP = 0.0193

#: Fewest replicates a pool worker is started for.  On a 2-vCPU host an
#: R = 2000 replicate takes about 1.2 ms in `uncpool simulate` and a
#: two-worker pool about 0.05 s more to start and join than a serial run:
#: whole runs took 0.40 s serial against 0.40 s on two workers at 100
#: replicates, 0.49 against 0.45 s at 150 and 0.66 against 0.56 s at 300
#: (medians of 5-6 alternating runs).  So two workers first beat one at
#: 100-150 replicates, and start from 128.
MIN_REPS_PER_WORKER = 64


@dataclass(frozen=True)
class SimScenario:
    """One simulation configuration.

    Estimates are drawn with means ``truth`` and variances ``variances``;
    each replicate's posterior uses an ``r``-cell grid.  Coverage is that of
    the exact equal-tailed 95% interval of each posterior mixture, found by
    evaluating its CDF at the truth, so no posterior draws are made.  ``b``,
    the draw count of earlier versions, is still validated and echoed into
    reports, so old scenario files run unchanged, but nothing reads it.
    """

    psi1: float = 0.276
    psi2: float = 0.179
    v1: float = 0.06 ** 2
    v2: float = 0.006 ** 2
    delta_shift: float = 0.0
    reps: int = 500
    r: int = 2000
    b: int = 5000
    base_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError("reps must be >= 1")
        if self.r < 2:
            raise DomainError(f"grid size r must be >= 2, got {self.r}")
        if self.b < 1:
            raise DomainError(f"draw count b must be >= 1, got {self.b}")
        for name in ("psi1", "psi2", "delta_shift", "v1", "v2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            if name in ("v1", "v2") and value <= 0:
                raise DomainError(f"generating variance {name} must be > 0, got {value}")
        if self.base_seed < 0:
            raise DomainError(f"base_seed must be >= 0, got {self.base_seed}")

    @property
    def truth(self) -> np.ndarray:
        """Generating means: (psi1, psi1, psi2 + delta_shift)."""
        return np.array([self.psi1, self.psi1, self.psi2 + self.delta_shift])

    @property
    def variances(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v2])


def _rep_seeds(base_seed: int, rep_index: int) -> np.random.SeedSequence:
    """Deterministic data seed of one replicate.

    Child 0 of the replicate's sequence, as in versions that also spawned a
    draw seed, so a base seed keeps giving the same estimates.
    """
    return np.random.SeedSequence(base_seed, spawn_key=(rep_index, 0))


def generate_replicate(s: SimScenario, rep_index: int) -> SurveyData:
    """Draw one replicate's estimates from the generating model."""
    if not 0 <= rep_index < s.reps:
        raise DomainError(f"rep_index {rep_index} outside 0..{s.reps - 1}")
    return _replicate_data(s, _rep_seeds(s.base_seed, rep_index))


def _replicate_data(s: SimScenario, data_ss: np.random.SeedSequence) -> SurveyData:
    rng = np.random.default_rng(data_ss)
    y = rng.normal(s.truth, np.sqrt(s.variances))
    return SurveyData(labels=("survey_1", "survey_2", "survey_3"), y_hat=y, v=s.variances)


def median(x: np.ndarray) -> np.ndarray:
    """Median of ``x`` along axis 0.

    Equals ``np.median(x, axis=0)`` bit for bit: numpy's steps, partitioning
    a copy at the same order statistics (the middle one or two, and the
    last), averaging the middle ones with ``mean``, and giving a column
    whose last order statistic is NaN that NaN.  ``np.median``'s NaN check
    imports ``numpy.ma``, about 20 ms of a process (see ``grid.interval95``).
    """
    arr = np.array(x, dtype=np.float64)
    n = arr.shape[0]
    mid = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    arr.partition([*mid, -1], axis=0)
    out = arr[mid[0]:mid[-1] + 1].mean(axis=0)
    return np.where(np.isnan(arr[-1]), arr[-1], out)


def sd_reduction(post_sd: float, obs_se: float) -> float:
    """Percent reduction of the posterior SD relative to the observed SE."""
    if obs_se <= 0:
        raise DomainError("observed SE must be > 0")
    return 100.0 * (obs_se - post_sd) / obs_se


@lru_cache(maxsize=4)   # bounded: a long-lived process may run many grid sizes
def _shared(r: int) -> tuple[PartitionSpace, DeltaGrid, np.ndarray]:
    """What every replicate reuses, built once per process and grid size: the
    L=3 space, the grid, and the permutation from enumeration order to the
    conventional 1..5 labels."""
    space = enumerate_partitions(3)
    order = np.argsort([display_label_l3(p) for p in space.partitions])
    return space, build_grid(r), order


def _run_replicate(s: SimScenario, rep_index: int) -> dict:
    """One replicate's partition probabilities, posterior moments and coverage.

    Coverage is ``grid.covers95`` at the truth: whether 0.025 <= F_i(truth_i)
    <= 0.975 for the exact posterior mixture CDF of each mu_i.  It sums the
    CDF over the head of the delta2 posterior, and over every cell only
    when the left-out tail could change a decision, so the decisions are
    those of the full ``grid.mixture_cdf``.
    """
    space, grid, order = _shared(s.r)
    data = _replicate_data(s, _rep_seeds(s.base_seed, rep_index))
    jp = evaluate_joint(data, space, grid)
    mean, sd = exact_mixture_moments(data, jp)
    return {
        "p_g": marginal_g(jp)[order],
        "post_mean": mean,
        "post_sd": sd,
        "covered": covers95(data, jp, s.truth).astype(float),
    }


@dataclass(frozen=True)
class SimReport:
    """Medians over replications plus empirical interval coverage."""

    scenario: SimScenario
    median_p_g: tuple[float, ...]           # labels 1..5
    median_post_mean: tuple[float, ...]
    median_post_sd: tuple[float, ...]
    coverage: tuple[float, ...]
    coverage_se: tuple[float, ...]          # binomial MC standard error
    median_sd_reduction: tuple[float, ...]  # percent vs no pooling

    def to_dict(self) -> dict:
        return {
            "scenario": asdict(self.scenario),
            "median_p_g": list(self.median_p_g),
            "median_post_mean": list(self.median_post_mean),
            "median_post_sd": list(self.median_post_sd),
            "coverage": list(self.coverage),
            "coverage_se": list(self.coverage_se),
            "median_sd_reduction": list(self.median_sd_reduction),
        }


def run_scenario(s: SimScenario, n_jobs: int = 1) -> SimReport:
    """Run all replicates of a scenario and reduce to the report medians.

    Coverage for each survey is the fraction of replicates whose exact 95%
    interval contains that survey's generating mean.  Deterministic given
    the scenario (including base_seed), regardless of ``n_jobs``: the
    replicates run in min(n_jobs, usable CPUs, reps // MIN_REPS_PER_WORKER)
    worker processes, one even share each, or in this process when that
    is at most 1.
    """
    if n_jobs < 1:
        raise DomainError(f"n_jobs must be >= 1, got {n_jobs}")
    # a fork-started pool starts all its workers at the first submit, so cap them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_jobs, cpus or 1, s.reps // MIN_REPS_PER_WORKER)
    run = partial(_run_replicate, s)
    if workers > 1:
        # imported here: loading the process pool costs every CLI start ~20 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            records = list(ex.map(run, range(s.reps), chunksize=math.ceil(s.reps / workers)))
    else:
        records = list(map(run, range(s.reps)))
    p_g = np.stack([r["p_g"] for r in records])
    mean = np.stack([r["post_mean"] for r in records])
    sd = np.stack([r["post_sd"] for r in records])
    cov = np.stack([r["covered"] for r in records]).mean(axis=0)
    cov_se = np.sqrt(cov * (1.0 - cov) / s.reps)
    obs_se = np.sqrt(s.variances)
    med_sd = median(sd)
    reductions = tuple(sd_reduction(float(ps), float(se)) for ps, se in zip(med_sd, obs_se))
    return SimReport(
        scenario=s,
        median_p_g=tuple(float(x) for x in median(p_g)),
        median_post_mean=tuple(float(x) for x in median(mean)),
        median_post_sd=tuple(float(x) for x in med_sd),
        coverage=tuple(float(x) for x in cov),
        coverage_se=tuple(float(x) for x in cov_se),
        median_sd_reduction=reductions,
    )


# ---------------------------------------------------------------------------
# scenario files and simulation reports
# ---------------------------------------------------------------------------

def parse_scenario(source) -> SimScenario:
    """Parse a flat ``key = value`` scenario file.

    Recognized keys are the fields of :class:`SimScenario`, each read as the
    type of its default, and ``delta``, an alias of delta_shift.  Lines
    starting with ``#`` are comments.  A key given twice, under either name,
    is a ParseError naming both lines.
    """
    types = {f.name: type(f.default) for f in fields(SimScenario)}
    lines = _read_lines(source)
    kwargs: dict = {}
    first_seen: dict[str, int] = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=i)
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key == "delta":
            key = "delta_shift"
        if key not in types:
            raise ParseError(f"unknown scenario key {key!r}", line=i)
        if key in first_seen:
            raise ParseError(f"{key} is set again; first set on line {first_seen[key]}", line=i)
        first_seen[key] = i
        try:
            kwargs[key] = types[key](val.strip())
        except ValueError:
            raise ParseError(f"bad value for {key}: {val.strip()!r}", line=i) from None
    return SimScenario(**kwargs)


def sim_report_json(report: SimReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def sim_report_csv(report: SimReport) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    head = (["delta_shift", "reps", "base_seed"]
            + [f"median_p_g{k}" for k in range(1, 6)]
            + [f"coverage_{i}" for i in (1, 2, 3)]
            + [f"coverage_se_{i}" for i in (1, 2, 3)]
            + [f"median_post_mean_{i}" for i in (1, 2, 3)]
            + [f"median_post_sd_{i}" for i in (1, 2, 3)]
            + [f"median_sd_reduction_{i}" for i in (1, 2, 3)])
    w.writerow(head)
    s = report.scenario
    w.writerow([repr(s.delta_shift), s.reps, s.base_seed]
               + [repr(x) for x in report.median_p_g]
               + [repr(x) for x in report.coverage]
               + [repr(x) for x in report.coverage_se]
               + [repr(x) for x in report.median_post_mean]
               + [repr(x) for x in report.median_post_sd]
               + [repr(x) for x in report.median_sd_reduction])
    return buf.getvalue()
