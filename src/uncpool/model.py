"""Closed-form model quantities for uncertain pooling of survey estimates.

The observation model is ``y_hat_i ~ N(mu_i, V_i)`` with known sampling
variances V_i.  Conditional on a partition of the sources into clusters and
a common between-source variance ``delta2``, the cluster means carry a
diffuse prior and the posterior of ``mu`` is normal with moments given by
:func:`conditional_moments`.  The (partition, delta2) posterior kernel is
:func:`log_joint_kernel`; all of it is computed in log space because the
shrinkage products underflow for small standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .partitions import Partition


@dataclass
class SurveyData:
    """Point estimates and known sampling variances for L sources.

    Parameters
    ----------
    labels : sequence of str
        Display names, one per source.
    y_hat : array-like
        Point estimates, finite.
    v : array-like
        Sampling variances, strictly positive.
    source_form : {"summary", "binomial"}
        The input form the estimates came from, echoed into reports.
    """

    labels: tuple[str, ...]
    y_hat: np.ndarray
    v: np.ndarray
    source_form: str

    def __init__(self, labels: Sequence[str], y_hat, v, source_form: str = "summary"):
        self.labels = tuple(str(s) for s in labels)
        self.y_hat = np.asarray(y_hat, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)
        self.source_form = source_form
        if source_form not in ("summary", "binomial"):
            raise DomainError(f"unknown source form {source_form!r}")
        if self.y_hat.ndim != 1 or self.v.shape != self.y_hat.shape:
            raise DomainError("y_hat and v must be 1-d arrays of equal length")
        if len(self.labels) != self.y_hat.shape[0]:
            raise DomainError("one label per estimate required")
        if self.y_hat.shape[0] < 1:
            raise DomainError("at least one source required")
        if not np.all(np.isfinite(self.y_hat)):
            raise DomainError("estimates must be finite")
        if not (np.all(np.isfinite(self.v)) and np.all(self.v > 0)):
            raise DomainError("sampling variances must be finite and > 0")

    def __eq__(self, other):
        # the generated __eq__ would compare the arrays inside a tuple
        if not isinstance(other, SurveyData):
            return NotImplemented
        return (self.labels == other.labels and self.source_form == other.source_form
                and np.array_equal(self.y_hat, other.y_hat) and np.array_equal(self.v, other.v))

    @property
    def l(self) -> int:
        return self.y_hat.shape[0]


@dataclass(frozen=True)
class ClusterStats:
    """Shrinkage weights and weighted mean for one cluster at fixed delta2."""

    lam: np.ndarray                   # shrinkage weight per member, in (0,1)
    lam_sum: float
    mu_hat: float                     # precision-weighted cluster mean
    log_one_minus_lam_sum: float      # sum of log(1 - lam) over members


@dataclass(frozen=True)
class ConditionalMoments:
    """Posterior mean vector and covariance of mu given (partition, delta2)."""

    mean: np.ndarray   # (L,)
    cov: np.ndarray    # (L, L), block-diagonal by cluster


def shrinkage(delta2: float, v_i: float) -> float:
    """Shrinkage weight delta2 / (delta2 + V_i).

    Monotone increasing in delta2; 0 at delta2 = 0.
    """
    if delta2 < 0:
        raise DomainError(f"delta2 must be >= 0, got {delta2}")
    if v_i <= 0:
        raise DomainError(f"sampling variance must be > 0, got {v_i}")
    return delta2 / (delta2 + v_i)


def cluster_stats(data: SurveyData, cluster: Sequence[int], delta2: float) -> ClusterStats:
    """Per-cluster shrinkage weights and precision-weighted mean.

    The weighted mean uses the members' shrinkage weights, so it always lies
    within the range of the members' estimates.
    """
    members = list(cluster)
    if not members:
        raise DomainError("cluster must be nonempty")
    if delta2 <= 0:
        raise DomainError(f"delta2 must be > 0, got {delta2}")
    v = data.v[members]
    y = data.y_hat[members]
    lam = delta2 / (delta2 + v)
    one_minus = v / (delta2 + v)
    lam_sum = float(lam.sum())
    mu_hat = float((lam * y).sum() / lam_sum)
    return ClusterStats(
        lam=lam,
        lam_sum=lam_sum,
        mu_hat=mu_hat,
        log_one_minus_lam_sum=float(np.log(one_minus).sum()),
    )


def conditional_moments(data: SurveyData, p: Partition, delta2: float) -> ConditionalMoments:
    """Posterior mean and covariance of mu given a partition and delta2.

    Within a cluster, each source's mean is shrunk toward the cluster's
    precision-weighted mean; the covariance has a diagonal term, a shared
    within-cluster term, and exact zeros across clusters.  A singleton
    cluster reduces algebraically to mean y_hat_i and variance V_i.
    """
    if delta2 <= 0:
        raise DomainError(f"delta2 must be > 0, got {delta2}")
    if p.l != data.l:
        raise DomainError(f"partition of {p.l} elements does not match L={data.l}")
    L = data.l
    mean = np.empty(L)
    cov = np.zeros((L, L))
    for members in p.clusters:
        if len(members) == 1:
            i = members[0]
            mean[i] = data.y_hat[i]      # algebraic identity, exact
            cov[i, i] = data.v[i]
            continue
        st = cluster_stats(data, members, delta2)
        one_minus = 1.0 - st.lam
        for a, i in enumerate(members):
            mean[i] = st.lam[a] * data.y_hat[i] + one_minus[a] * st.mu_hat
            for b, j in enumerate(members):
                if i == j:
                    cov[i, i] = delta2 * one_minus[a] + one_minus[a] ** 2 * delta2 / st.lam_sum
                else:
                    cov[i, j] = one_minus[a] * one_minus[b] * delta2 / st.lam_sum
    return ConditionalMoments(mean=mean, cov=cov)


def q_statistic(data: SurveyData, p: Partition, delta2: float) -> float:
    """Precision-weighted within-cluster sum of squared deviations.

    Q = sum over clusters and members of (lam_i / delta2) * (y_i - mu_hat_k)^2.
    Singleton clusters contribute exactly zero.  Q generally falls as the
    partition is refined, which the kernel's cluster-count penalty offsets.
    """
    if delta2 <= 0:
        raise DomainError(f"delta2 must be > 0, got {delta2}")
    total = 0.0
    for members in p.clusters:
        if len(members) == 1:
            continue
        w = 1.0 / (delta2 + data.v[list(members)])
        y = data.y_hat[list(members)]
        mu_hat = float((w * y).sum() / w.sum())
        total += float((w * (y - mu_hat) ** 2).sum())
    return total


def log_inv_beta_prior(delta2) -> np.ndarray | float:
    """Unnormalized log density of the inverted-beta prior on delta2.

    log f(delta2) = -log(1 + delta2) - 0.5 * log(delta2).  Equivalently,
    sqrt(delta2) is half-Cauchy(0, 1); the normalizing constant is pi.
    Accepts scalars or arrays; requires delta2 > 0.
    """
    d2 = np.asarray(delta2, dtype=np.float64)
    if np.any(d2 <= 0):
        raise DomainError("delta2 must be > 0")
    out = -np.log1p(d2) - 0.5 * np.log(d2)
    return float(out) if np.isscalar(delta2) else out


def log_partition_likelihood(data: SurveyData, p: Partition, delta2: float) -> float:
    """Log of the partition-specific factor of the joint kernel.

    Returns -d/2 + 0.5 * sum log(1 - lam_i) - Q/2, the terms of the
    (partition, delta2) kernel that depend on the data and partition.  The
    sum of log(1 - lam_i) runs over all sources and is shared by every
    partition at fixed delta2; Q and the cluster-count penalty d/2 differ.
    """
    if delta2 <= 0:
        raise DomainError(f"delta2 must be > 0, got {delta2}")
    one_minus = data.v / (delta2 + data.v)
    base = 0.5 * float(np.log(one_minus).sum())
    return base - 0.5 * q_statistic(data, p, delta2) - 0.5 * p.d


def log_joint_kernel(data: SurveyData, p: Partition, delta2: float,
                     log_prior_g: float) -> float:
    """Unnormalized log posterior kernel of one (partition, delta2) pair.

    log f(delta2) + log f(g) - d/2 + 0.5 * sum log(1 - lam_i) - Q/2, with a
    single delta2 shared by all clusters.  Normalizing exp of this kernel
    over a (partition, grid) lattice approximates the joint posterior; the
    value is invariant to translating every estimate by a constant, and all
    terms except the delta2 prior are invariant to rescaling
    (y, V, delta2) -> (c*y, c^2*V, c^2*delta2).
    """
    return (
        log_inv_beta_prior(delta2)
        + log_prior_g
        + log_partition_likelihood(data, p, delta2)
    )
