"""Complete-pooling and Dirichlet-process-mixture baselines.

The pool-all posterior summarizes the common mean nu of the single-cluster
model, mixing its conditional normal over the delta2 marginal p(j); its
interval draws cells from p(j) with numpy's ``Generator.choice``.  The DPM
baseline clusters sources through a Dirichlet process prior on their
means, with base parameters eta ~ N(eta_b, s_b) and tau2 ~
IG(phi1/2, phi2/2).  The four hyperpriors come from the data and cannot be
set (:func:`_dpm_hyperpriors`): eta_b is the precision-weighted mean of the
estimates, s_b their squared range, phi1 = 2 and phi2 twice their sample
variance; s_b and phi2 are the mean V where the estimates are all equal,
as at L = 1.  Like the grid analysis, every DPM quantity (the hyperpriors,
the quadrature box, the chain and its summaries) is formed about the shift
of ``kernels.centre``, which is added back once.  At fixed base parameters
(eta, tau2) the DPM is a product partition model, whose block scores
:func:`_dpm_blocks` gives.  The ``dpm`` command reports the posterior by
quadrature over (eta, log tau2) (``quadrature.dpm_quadrature``) up to
DPM_QUADRATURE_MAX_L sources, and from the collapsed Gibbs chain
:func:`dpm_gibbs`, which is faster there, beyond.  The exact enumeration
oracle :func:`dpm_exact` checks both at fixed base parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError
from .grid import DeltaGrid, JointGridPosterior, _check_sources, _solve, interval95
from .model import SurveyData
from .partitions import (Partition, PartitionSpace, enumerate_partitions, growth_codes,
                         member_masks)


@dataclass(frozen=True)
class PoolAllPosterior:
    """Posterior summary of the common mean under complete pooling."""

    mean: float
    sd: float
    interval: tuple[float, float]

    def to_dict(self) -> dict:
        return {"mean": self.mean, "sd": self.sd,
                "ci_lower": self.interval[0], "ci_upper": self.interval[1]}


def pool_all(data: SurveyData, grid: DeltaGrid, b: int = 5000, seed: int = 0,
             jp: JointGridPosterior | None = None) -> PoolAllPosterior:
    """Posterior of the common mean nu, mixing over the variance posterior.

    Conditional on delta2, nu is normal with precision-weighted mean
    sum(y_i/(V_i+delta2)) / sum(1/(V_i+delta2)) and variance
    1/sum(1/(V_i+delta2)).  The mixture runs over the delta2 marginal p(j)
    of the partition-averaged posterior; mean and SD come from the exact
    mixture, the 95% interval from ``b`` draws.  The conditional moments
    are read from the full-set row of the subset table and of 1/A_S in
    the posterior's V-only terms.  Without ``jp``, the posterior of
    ``grid.evaluate_joint`` is built, with no partition enumerated.
    """
    if data.l < 2:
        raise DomainError(f"complete pooling needs L >= 2, got L={data.l}")
    if b < 1:
        raise DomainError(f"draw count must be >= 1, got {b}")
    if jp is None:
        jp = _solve(data, grid)
    _check_sources(data, jp)
    if not np.array_equal(jp.grid.deltas2, grid.deltas2):
        raise DomainError(f"jp was built on a grid of R={jp.grid.r}, "
                          f"not on this R={grid.r} grid")
    table, weights = jp.table, jp.delta2_probs
    shift = table.shift
    mean_c, var_c = table.ybar[-1], table.terms.inv_a[-1]
    mean = float((weights * mean_c).sum())
    e2 = float((weights * (var_c + mean_c ** 2)).sum())
    sd = math.sqrt(max(e2 - mean * mean, 0.0))
    rng = np.random.default_rng(seed)
    cells = rng.choice(weights.size, b, p=weights / weights.sum())
    draws = rng.normal(mean_c[cells], np.sqrt(var_c[cells]))
    lo, hi = interval95(draws)
    return PoolAllPosterior(mean=shift + mean, sd=sd,
                            interval=(shift + float(lo), shift + float(hi)))


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
    """Settings for the DPM baseline, each checked when the config is built.

    The hyperpriors cannot be set: :func:`_dpm_hyperpriors` derives eta_b,
    s_b, phi1 and phi2 from the data.  ``iterations``, ``burn_in``,
    ``thin`` and ``seed`` are read by the Gibbs chain alone.
    ``fixed_eta``/``fixed_tau2`` freeze the base-distribution parameters
    instead of sampling them, which the exact-enumeration oracle requires.
    """

    m: float = 3.0
    iterations: int = 12000
    burn_in: int = 2000
    thin: int = 1
    seed: int = 0
    fixed_eta: float | None = None
    fixed_tau2: float | None = None

    def __post_init__(self):
        if self.burn_in < 0:
            raise DomainError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.iterations <= self.burn_in:
            raise DomainError("iterations must exceed burn_in")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if self.iterations - self.burn_in <= self.thin:   # one draw has no sample SD
            raise DomainError("the chain keeps 1 draw after burn_in and thin; it needs at least 2")
        if self.m <= 0:
            raise DomainError("concentration m must be > 0")
        if not np.isfinite(self.m):
            raise DomainError(f"hyperprior input m={self.m} is not usable")
        if self.fixed_eta is not None and not np.isfinite(self.fixed_eta):
            raise DomainError(f"fixed_eta must be finite, got {self.fixed_eta}")
        if self.fixed_tau2 is not None and not (np.isfinite(self.fixed_tau2) and self.fixed_tau2 > 0):
            raise DomainError(f"fixed_tau2 must be finite and > 0, got {self.fixed_tau2}")


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
        """Empirical partition probabilities aligned with ``space``.

        Each kept draw's labels are renumbered by first occurrence, which
        turns them into the partition's growth string.
        """
        z = self.assignments
        l = z.shape[1]
        seen = z[:, :, None] == np.arange(l)                     # (T, L, L): label c at i
        first = np.where(seen.any(axis=1), seen.argmax(axis=1), l)
        rank = (first[:, None, :] < first[:, :, None]).sum(axis=2)   # labels seen before c
        g = space.index_of_codes(growth_codes(np.take_along_axis(rank, z, axis=1)))
        counts = np.bincount(g, minlength=space.g)
        return counts / counts.sum()


def _dpm_hyperpriors(data: SurveyData, m: float) -> tuple[dict, float, np.ndarray, float]:
    """``m`` and the module docstring's hyperpriors of ``data``, each checked usable.

    Every one is formed about the shift of ``kernels.centre``, as the grid
    analysis is: the centred estimates yc, their range and sample
    variance, and eta_c, the precision-weighted mean of yc (``centre``
    again).  The echoed eta_b is shift + eta_c.  Also returns the shift,
    yc and eta_c.
    """
    shift = kernels.centre(data.y_hat, data.v)
    with np.errstate(over="ignore", invalid="ignore"):   # the check below reports overflow
        yc = data.y_hat - shift
        diff = yc.max() - yc.min()
        spread = float(diff ** 2)
        # equal estimates: np.var can leave a rounding residue such as 1.8e-32 at 0.7
        var = float(np.var(yc, ddof=1)) if diff > 0 else 0.0
    eta_c = kernels.centre(yc, data.v)
    res = {"eta_b": shift + eta_c,
           "s_b": spread if spread > 0 else float(data.v.mean()),
           "phi1": 2.0,
           "phi2": 2.0 * var if var > 0 else float(data.v.mean())}
    for name, val in res.items():
        if not np.isfinite(val) or (name != "eta_b" and val <= 0):
            raise DomainError(f"hyperprior input {name}={val} is not usable")
    return {"m": m, **res}, shift, yc, eta_c


def dpm_gibbs(data: SurveyData, cfg: DpmConfig) -> DpmDraws:
    """Collapsed Gibbs sampler for the DPM with known observation variances.

    Cluster assignments are updated from their posterior predictive weights
    with cluster values integrated out; cluster values, the base mean, and
    the base precision are then redrawn from their conjugate conditionals.
    The concentration m stays fixed.  Reproducible given the seed.  The
    chain runs on the estimates less the shift of :func:`_dpm_hyperpriors`,
    and the summaries are taken of its draws before the shift is added
    back, so that offset data lose no digits.
    """
    res, shift, yc, eta_c = _dpm_hyperpriors(data, cfg.m)
    eta0 = cfg.fixed_eta - shift if cfg.fixed_eta is not None else eta_c
    tau20 = cfg.fixed_tau2 if cfg.fixed_tau2 is not None else res["phi2"] / res["phi1"]

    T, L = cfg.iterations, data.l
    rng = np.random.default_rng(cfg.seed)
    uniforms = rng.random((T, L))
    norm_phi = rng.standard_normal((T, L))
    norm_eta = rng.standard_normal(T)
    gammas = np.empty((T, L))
    for k in range(1, L + 1):
        gammas[:, k - 1] = rng.gamma(res["phi1"] / 2.0 + k / 2.0, 1.0, size=T)

    z, theta, eta, tau2 = kernels.dpm_chain(
        yc, data.v, res["m"], eta_c, res["s_b"], res["phi2"], eta0, tau20,
        cfg.fixed_eta is None, cfg.fixed_tau2 is None,
        cfg.burn_in, cfg.thin,
        uniforms, norm_phi, norm_eta, gammas,
    )
    lo, hi = interval95(theta)
    return DpmDraws(
        config=cfg,
        resolved=res,
        assignments=z,
        theta=shift + theta,
        eta=shift + eta,
        tau2=tau2,
        post_mean=tuple(float(x) for x in shift + theta.mean(axis=0)),
        post_sd=tuple(float(x) for x in theta.std(axis=0, ddof=1)),
        ci_lower=tuple(float(x) for x in shift + lo),
        ci_upper=tuple(float(x) for x in shift + hi),
    )


#: Largest L the exact DPM oracle enumerates; ``quadrature.dpm_quadrature``
#: has no such bound of its own.
DPM_EXACT_MAX_L = 8
#: Largest L whose ``dpm`` report comes from ``quadrature.dpm_quadrature``:
#: the largest L at which it was measured faster than the default
#: 12000-sweep :func:`dpm_gibbs`, which the CLI runs above it.
DPM_QUADRATURE_MAX_L = 6


def _dpm_blocks(t: kernels.SubsetTable, eta_c: np.ndarray, tau2: np.ndarray,
                m: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(2^L, C) log block score, cluster-value mean and variance at C (eta, tau2) pairs.

    ``t`` is the subset table at delta2 = 0, whose A_S, ybar_S and q_S are
    a cluster's precision sums, and ``eta_c`` is eta less its shift.  A
    cluster's values N(eta, diag(V) + tau2 J) have, up to factors shared
    by every partition, the log marginal -log(1 + tau2 A)/2 - [q + A (ybar
    - eta)^2 / (1 + tau2 A)]/2, and its DP prior factor is m Gamma(|S|).
    Given its members, the cluster value is normal with mean (eta + tau2
    A ybar) / (1 + tau2 A) and variance tau2 / (1 + tau2 A), about the
    shift.  Row 0, the empty set, holds finite values that no caller uses
    as a block.
    """
    l = t.a.shape[0].bit_length() - 1
    sizes = kernels.membership(l).sum(axis=0)
    sizes[0] = 1.0
    a, ybar, q = t.a[:, :1], t.ybar[:, :1], t.q[:, :1]
    ta = tau2 * a
    ta += 1.0
    mean = tau2 * (ybar * a)
    mean += eta_c
    mean /= ta
    dev = ybar - eta_c
    dev *= dev
    dev *= a
    dev /= ta
    dev += q
    score = np.log(ta)
    score += dev
    score *= -0.5
    score += (math.log(m) + np.array([math.lgamma(k) for k in sizes]))[:, None]
    var = np.divide(tau2, ta, out=ta)
    return score, mean, var


@dataclass(frozen=True)
class DpmExactResult:
    """Exact DPM posterior at fixed base parameters, by partition enumeration."""

    space: PartitionSpace
    probs: np.ndarray         # (G,) posterior partition probabilities
    post_mean: np.ndarray     # (L,)
    post_sd: np.ndarray       # (L,)


def dpm_exact(data: SurveyData, eta: float, tau2: float, m: float) -> DpmExactResult:
    """Exact DPM partition posterior and survey moments at fixed (eta, tau2).

    Enumerates all partitions (L <= DPM_EXACT_MAX_L), weighting each by its
    DP prior times the product of its clusters' closed-form marginal
    likelihoods; survey moments mix the conjugate within-cluster posteriors
    over partitions.  Serves as the correctness oracle for
    :func:`dpm_gibbs` and ``quadrature.dpm_quadrature``, with which it
    shares only the block scores and moments of :func:`_dpm_blocks`.
    """
    if data.l > DPM_EXACT_MAX_L:
        raise DomainError(f"exact enumeration supports L <= {DPM_EXACT_MAX_L}, got L={data.l}")
    if tau2 <= 0:
        raise DomainError("tau2 must be > 0")
    if m <= 0:
        raise DomainError(f"concentration must be > 0, got {m}")
    space = enumerate_partitions(data.l)
    t = kernels.subset_table(data.y_hat, data.v, np.zeros(1))
    score, mean, var = (x[:, 0] for x in _dpm_blocks(t, np.array([eta - t.shift]),
                                                       np.array([tau2]), m))
    score[0] = 0.0   # the empty set pads partitions with fewer than L clusters
    logw = score[space.cluster_masks].sum(axis=1)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    # each source's conjugate cluster posterior, (G, L), about the table's shift
    member = member_masks(space.assignment_array)
    means = mean[member]
    variances = var[member]
    e1 = w @ means
    sd = np.sqrt(w @ (variances + (means - e1) ** 2))
    return DpmExactResult(space=space, probs=w, post_mean=t.shift + e1, post_sd=sd)
