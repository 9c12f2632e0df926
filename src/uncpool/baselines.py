"""Complete-pooling and Dirichlet-process-mixture baselines.

The pool-all posterior summarizes the common mean nu of the single-cluster
model.  The DPM baseline clusters sources through a Dirichlet process prior
on their means, sampled by a collapsed Gibbs chain; an exact enumeration
oracle over partitions validates the chain at small L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .grid import DeltaGrid, JointGridPosterior, evaluate_joint, marginal_delta2
from .model import SurveyData
from .partitions import Partition, PartitionSpace, enumerate_partitions


@dataclass(frozen=True)
class PoolAllPosterior:
    """Posterior summary of the common mean under complete pooling."""

    mean: float
    sd: float
    interval: tuple[float, float]
    grid: DeltaGrid


def pool_all(data: SurveyData, grid: DeltaGrid, b: int = 5000, seed: int = 0,
             space: PartitionSpace | None = None,
             jp: JointGridPosterior | None = None) -> PoolAllPosterior:
    """Posterior of the common mean nu, mixing over the variance posterior.

    Conditional on delta2, nu is normal with precision-weighted mean
    sum(y_i/(V_i+delta2)) / sum(1/(V_i+delta2)) and variance
    1/sum(1/(V_i+delta2)).  The mixture runs over the grid marginal of
    delta2 from the partition-averaged posterior; mean and SD come from the
    exact mixture, the 95% interval from ``b`` draws.  The conditional
    moments are read from the full-set row of the subset table.

    Pass ``space`` (or a precomputed ``jp``) to restrict the partitions the
    delta2 marginal averages over, e.g. the single all-in-one partition.
    """
    if data.l < 2:
        raise DomainError(f"complete pooling needs L >= 2, got L={data.l}")
    if b < 1:
        raise DomainError(f"draw count must be >= 1, got {b}")
    if jp is not None and not np.array_equal(jp.grid.deltas2, grid.deltas2):
        raise DomainError(f"jp was built on a grid of R={jp.grid.r}, not on this R={grid.r} grid")
    if jp is None:
        if space is None:
            space = enumerate_partitions(data.l)
        jp = evaluate_joint(data, space, grid)
    weights = marginal_delta2(jp)
    shift = jp.table.shift
    mean_c, var_c = jp.table.ybar[-1], 1.0 / jp.table.a[-1]
    mean = float((weights * mean_c).sum())
    e2 = float((weights * (var_c + mean_c ** 2)).sum())
    sd = math.sqrt(max(e2 - mean * mean, 0.0))
    rng = np.random.default_rng(seed)
    cells = rng.choice(grid.r, size=b, p=weights / weights.sum())
    draws = rng.normal(mean_c[cells], np.sqrt(var_c[cells]))
    lo, hi = np.quantile(draws, [0.025, 0.975])
    return PoolAllPosterior(mean=shift + mean, sd=sd,
                            interval=(shift + float(lo), shift + float(hi)), grid=grid)


# ---------------------------------------------------------------------------
# Dirichlet process mixture
# ---------------------------------------------------------------------------

def dpm_partition_prior(p: Partition, m: float) -> float:
    """Prior probability of a partition under a DP with concentration m.

    m^(k-1) * prod Gamma(n_j) / [(m+1)(m+2)...(m+L-1)] for k clusters of
    sizes n_j.  Sums to one over all partitions of {1..L}.
    """
    if m <= 0:
        raise DomainError(f"concentration must be > 0, got {m}")
    k = p.d
    num = m ** (k - 1)
    for members in p.clusters:
        num *= math.gamma(len(members))
    den = 1.0
    for j in range(1, p.l):
        den *= m + j
    return num / den


@dataclass(frozen=True)
class DpmConfig:
    """Settings for the DPM baseline.

    ``eta_b``, ``s_b`` and ``phi2`` default to data-driven values when None:
    precision-weighted mean of the estimates, squared estimate range, and
    twice the sample variance of the estimates.  ``fixed_eta``/``fixed_tau2``
    freeze the base-distribution parameters instead of sampling them, which
    the exact-enumeration oracle requires.
    """

    m: float = 3.0
    eta_b: float | None = None
    s_b: float | None = None
    phi1: float = 2.0
    phi2: float | None = None
    iterations: int = 12000
    burn_in: int = 2000
    thin: int = 1
    seed: int = 0
    fixed_eta: float | None = None
    fixed_tau2: float | None = None


@dataclass(frozen=True)
class DpmDraws:
    """Retained Gibbs samples and the per-survey posterior summary."""

    config: DpmConfig
    resolved: dict
    assignments: np.ndarray   # (kept, L) compact cluster labels
    theta: np.ndarray         # (kept, L) per-survey mean draws
    eta: np.ndarray           # (kept,)
    tau2: np.ndarray          # (kept,)
    post_mean: tuple[float, ...]
    post_sd: tuple[float, ...]
    ci_lower: tuple[float, ...]
    ci_upper: tuple[float, ...]

    def partition_frequencies(self, space: PartitionSpace) -> np.ndarray:
        """Empirical partition probabilities aligned with ``space``."""
        index = {p.assignment: i for i, p in enumerate(space.partitions)}
        counts = np.zeros(space.g)
        for row in self.assignments:
            canon = []
            remap: dict[int, int] = {}
            for a in row:
                if a not in remap:
                    remap[a] = len(remap)
                canon.append(remap[a])
            counts[index[tuple(canon)]] += 1
        return counts / counts.sum()


def _resolve_dpm_defaults(data: SurveyData, cfg: DpmConfig) -> dict:
    prec = 1.0 / data.v
    eta_b = cfg.eta_b if cfg.eta_b is not None else float((data.y_hat * prec).sum() / prec.sum())
    rng_sq = float((data.y_hat.max() - data.y_hat.min()) ** 2)
    s_b = cfg.s_b if cfg.s_b is not None else (rng_sq if rng_sq > 0 else float(data.v.mean()))
    if cfg.phi2 is not None:
        phi2 = cfg.phi2
    elif data.l > 1 and float(np.var(data.y_hat, ddof=1)) > 0:
        phi2 = 2.0 * float(np.var(data.y_hat, ddof=1))
    else:
        phi2 = float(data.v.mean())
    return {"m": cfg.m, "eta_b": eta_b, "s_b": s_b, "phi1": cfg.phi1, "phi2": phi2}


def dpm_gibbs(data: SurveyData, cfg: DpmConfig) -> DpmDraws:
    """Collapsed Gibbs sampler for the DPM with known observation variances.

    Cluster assignments are updated from their posterior predictive weights
    with cluster values integrated out; cluster values, the base mean, and
    the base precision are then redrawn from their conjugate conditionals.
    The concentration m stays fixed.  Reproducible given the seed.
    """
    if cfg.iterations <= cfg.burn_in:
        raise DomainError("iterations must exceed burn_in")
    if cfg.thin < 1:
        raise DomainError("thin must be >= 1")
    if cfg.m <= 0:
        raise DomainError("concentration m must be > 0")
    res = _resolve_dpm_defaults(data, cfg)
    for name, val in res.items():
        if not np.isfinite(val) or (name != "eta_b" and val <= 0):
            raise DomainError(f"hyperprior input {name}={val} is not usable")

    eta0 = cfg.fixed_eta if cfg.fixed_eta is not None else res["eta_b"]
    tau20 = cfg.fixed_tau2 if cfg.fixed_tau2 is not None else res["phi2"] / res["phi1"]
    if tau20 <= 0 or not np.isfinite(eta0):
        raise DomainError("initial base parameters must be finite and positive")

    T, L = cfg.iterations, data.l
    rng = np.random.default_rng(cfg.seed)
    uniforms = rng.random((T, L))
    norm_phi = rng.standard_normal((T, L))
    norm_eta = rng.standard_normal(T)
    gammas = np.empty((T, L))
    for k in range(1, L + 1):
        gammas[:, k - 1] = rng.gamma(res["phi1"] / 2.0 + k / 2.0, 1.0, size=T)

    z, theta, eta, tau2 = kernels.dpm_chain(
        data.y_hat, data.v, res["m"], res["eta_b"], res["s_b"], res["phi1"],
        res["phi2"], eta0, tau20,
        cfg.fixed_eta is None, cfg.fixed_tau2 is None,
        cfg.burn_in, cfg.thin,
        uniforms, norm_phi, norm_eta, gammas,
    )
    lo = np.quantile(theta, 0.025, axis=0)
    hi = np.quantile(theta, 0.975, axis=0)
    return DpmDraws(
        config=cfg,
        resolved=res,
        assignments=z,
        theta=theta,
        eta=eta,
        tau2=tau2,
        post_mean=tuple(float(x) for x in theta.mean(axis=0)),
        post_sd=tuple(float(x) for x in theta.std(axis=0, ddof=1)),
        ci_lower=tuple(float(x) for x in lo),
        ci_upper=tuple(float(x) for x in hi),
    )


@dataclass(frozen=True)
class DpmExactResult:
    """Exact DPM posterior at fixed base parameters, by partition enumeration."""

    space: PartitionSpace
    probs: np.ndarray         # (G,) posterior partition probabilities
    post_mean: np.ndarray     # (L,)
    post_sd: np.ndarray       # (L,)


def dpm_exact(data: SurveyData, eta: float, tau2: float, m: float,
              max_l: int = 8) -> DpmExactResult:
    """Exact DPM partition posterior and survey moments at fixed (eta, tau2).

    Enumerates all partitions (L <= 8), weighting each by its DP prior times
    the product of its clusters' closed-form marginal likelihoods; survey
    moments mix the conjugate within-cluster posteriors over partitions.
    Serves as the correctness oracle for :func:`dpm_gibbs`.

    Every cluster term is read from the subset table at delta2 = 0, whose
    A_S, ybar_S and q_S are the cluster's precision sums.  A cluster's
    values N(eta, diag(V) + tau2 J) have, up to factors shared by every
    partition, the log marginal -log(1 + tau2 A)/2 - [q + A (ybar - eta)^2
    / (1 + tau2 A)]/2, and its DP prior factor is m * Gamma(|S|).
    """
    if data.l > max_l:
        raise DomainError(f"exact enumeration supports L <= {max_l}, got L={data.l}")
    if tau2 <= 0:
        raise DomainError("tau2 must be > 0")
    if m <= 0:
        raise DomainError(f"concentration must be > 0, got {m}")
    space = enumerate_partitions(data.l)
    t = kernels.subset_table(data.y_hat, data.v, np.zeros(1))
    a, ybar, q = t.a[:, 0], t.ybar[:, 0], t.q[:, 0]
    eta_c, ta = eta - t.shift, 1.0 + tau2 * a
    lgam = np.array([math.lgamma(bin(s).count("1") or 1) for s in range(a.shape[0])])
    score = math.log(m) + lgam - 0.5 * np.log(ta) - 0.5 * (q + a * (ybar - eta_c) ** 2 / ta)
    score[0] = 0.0   # the empty set pads partitions with fewer than L clusters
    logw = score[space.cluster_masks].sum(axis=1)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    # each source's conjugate cluster posterior, (G, L), about the table's shift
    means = ((eta_c + tau2 * a * ybar) / ta)[space.member_masks]
    variances = (tau2 / ta)[space.member_masks]
    e1 = w @ means
    sd = np.sqrt(w @ (variances + (means - e1) ** 2))
    return DpmExactResult(space=space, probs=w, post_mean=t.shift + e1, post_sd=sd)
