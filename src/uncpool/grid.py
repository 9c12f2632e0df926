"""Grid posterior over (partition, delta2): evaluation, sampling, summaries.

The between-source variance gets an R-point grid placed at the quantiles of
its prior: with theta_j = (j - 1/2) * (pi/2) / R and delta_j = tan(theta_j),
each cell carries prior mass exactly 1/R because arctan(sqrt(delta2)) is
uniform under the inverted-beta prior.  The joint kernel is evaluated at
every (partition, cell) pair and normalized by its sum, giving a discrete
approximation of the joint posterior that all downstream summaries use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .errors import ComputationError, DomainError
from .model import SurveyData, log_inv_beta_prior
from .partitions import Partition, PartitionSpace, display_label_l3

if TYPE_CHECKING:  # runtime import would be circular; used only in annotations
    from .baselines import PoolAllPosterior


def _logsumexp(x: np.ndarray) -> float:
    m = np.max(x)
    return float(m + np.log(np.exp(x - m).sum()))


@dataclass(frozen=True)
class DeltaGrid:
    """Equal-prior-mass grid for the between-source variance."""

    r: int
    deltas2: np.ndarray         # (R,) strictly increasing, > 0
    log_prior_mass: np.ndarray  # (R,) log cell masses, summing to 1


def build_grid(r: int) -> DeltaGrid:
    """Midpoint grid of R cells with equal prior mass under the variance prior.

    theta_j = (j - 1/2) * (pi/2) / R for j = 1..R, delta2_j = tan(theta_j)^2,
    every cell mass 1/R.  No range truncation or tuning is involved.
    """
    if r < 2:
        raise DomainError(f"grid size must be >= 2, got {r}")
    theta = (np.arange(1, r + 1) - 0.5) * (np.pi / 2.0) / r
    deltas2 = np.tan(theta) ** 2
    return DeltaGrid(r=r, deltas2=deltas2, log_prior_mass=np.full(r, -np.log(r)))


@dataclass(frozen=True)
class JointGridPosterior:
    """Normalized log posterior masses over the (partition, cell) lattice.

    ``table`` holds the per-subset statistics the lattice was scored from;
    the moments, the draws and complete pooling read them from here.
    """

    grid: DeltaGrid
    space: PartitionSpace
    log_mass: np.ndarray   # (G, R)
    log_evidence: float
    table: kernels.SubsetTable


def evaluate_joint(data: SurveyData, space: PartitionSpace, grid: DeltaGrid,
                   log_prior_g: np.ndarray | None = None) -> JointGridPosterior:
    """Evaluate and normalize the joint kernel on the (partition, cell) lattice.

    Each cell's log mass is the joint kernel (variance prior density,
    partition prior, cluster-count penalty, shrinkage and misfit terms) plus
    the cell's log prior mass, normalized by log-sum-exp.  The misfit of a
    partition is the sum of its clusters' rows of the per-subset table,
    which is built once here and kept on the result.

    Parameters
    ----------
    log_prior_g : (G,) array, optional
        Log prior masses over partitions; uniform when omitted.
    """
    if data.l != space.l:
        raise DomainError(f"data has L={data.l} but partition space has L={space.l}")
    y, v, d2 = data.y_hat, data.v, grid.deltas2
    if log_prior_g is None:
        log_prior_g = np.full(space.g, -np.log(space.g))
    else:
        log_prior_g = np.asarray(log_prior_g, dtype=np.float64)
        if log_prior_g.shape != (space.g,):
            raise DomainError("log_prior_g must have one entry per partition")

    table = kernels.subset_table(y, v, d2)
    base = 0.5 * np.log(v[:, None] / (d2[None, :] + v[:, None])).sum(axis=0)  # (R,)
    lm = kernels.q_matrix(table, space.cluster_masks)
    lm *= -0.5
    lm += (base + log_inv_beta_prior(d2) + grid.log_prior_mass)[None, :]
    lm += (log_prior_g - 0.5 * space.d_array)[:, None]
    if not np.all(np.isfinite(lm)):
        g, j = np.unravel_index(int(np.argmin(np.isfinite(lm))), lm.shape)
        raise ComputationError(
            f"non-finite kernel value at partition {space.partitions[g].notation()} "
            f"(index {g}), grid cell {j} (delta2={d2[j]:g})"
        )
    log_z = _logsumexp(lm.ravel())
    lm -= log_z
    return JointGridPosterior(grid=grid, space=space, log_mass=lm, log_evidence=log_z,
                              table=table)


def marginal_g(jp: JointGridPosterior) -> np.ndarray:
    """Posterior probability of each partition (row sums over grid cells)."""
    return np.exp(jp.log_mass).sum(axis=1)


def marginal_delta2(jp: JointGridPosterior) -> np.ndarray:
    """Posterior mass of each grid cell (column sums over partitions)."""
    return np.exp(jp.log_mass).sum(axis=0)


@dataclass(frozen=True)
class PosteriorDraws:
    """Monte Carlo draws of mu from the grid posterior."""

    b: int
    mu: np.ndarray             # (B, L)
    g_indices: np.ndarray      # (B,) partition index per draw
    delta2_values: np.ndarray  # (B,) grid delta2 per draw
    seed: int


def _draw_mu(data: SurveyData, table: kernels.SubsetTable, members: np.ndarray,
             slots: np.ndarray, cols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw mu at given (partition, grid point) pairs, one row per entry of ``cols``.

    ``members`` (n, L) holds the subset bitmask of each source's cluster,
    ``slots`` (n, L) that cluster's label (its growth-string value), and
    ``cols`` (n,) the table column.  Two-stage ancestral scheme: per
    cluster, draw the cluster mean nu_k ~ N(ybar_k, delta2 / sum(lam)) =
    N(ybar_k, 1 / A_k), then each member mu_i ~ N(lam_i y_i + (1 - lam_i)
    nu_k, lam_i V_i) independently.  The identity lam_i V_i = delta2
    (1 - lam_i) makes the resulting mean and covariance match the
    closed-form conditional moments exactly.
    """
    # In place: these (n, L) temporaries set the peak memory of a small run.
    d2 = table.deltas2[cols][:, None]
    oml = data.v / (d2 + data.v)
    col = cols[:, None]
    nu = np.take_along_axis(rng.standard_normal(slots.shape), slots, axis=1)
    nu /= np.sqrt(table.a[members, col])
    nu += table.ybar[members, col]
    mu = rng.standard_normal(slots.shape)
    mu *= np.sqrt(d2 * oml)
    nu *= oml
    mu += nu
    mu += d2 / (d2 + data.v) * (data.y_hat - table.shift)
    mu += table.shift
    return mu


def _draw_mu_for_partition(data: SurveyData, p: Partition, delta2: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw mu at fixed partition, one draw per entry of ``delta2``.

    Uses the scheme of :func:`_draw_mu` on a table over the distinct
    ``delta2`` values.
    """
    d2, cols = np.unique(delta2, return_inverse=True)
    table = kernels.subset_table(data.y_hat, data.v, d2)
    members = PartitionSpace(l=p.l, partitions=(p,)).member_masks
    shape = (delta2.shape[0], p.l)
    return _draw_mu(data, table, np.broadcast_to(members, shape),
                    np.broadcast_to(p.assignment, shape), cols, rng)


def _draw_cells(mass: np.ndarray, b: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``b`` flat indices with probability proportional to ``mass``.

    Runs exactly what ``rng.choice(mass.size, b, p=mass / mass.sum())`` runs
    after its argument checks (inverse CDF: cumulative sum, scaled by its
    last entry, searched with uniforms), so the draws are bit-identical to
    it.  The checks are skipped because the masses come from a lattice that
    ``evaluate_joint`` has already checked to be finite.  ``mass`` is
    overwritten with the CDF.
    """
    mass /= mass.sum()
    np.cumsum(mass, out=mass)
    mass /= mass[-1]
    return mass.searchsorted(rng.random(b), side="right")


def sample_mu(data: SurveyData, jp: JointGridPosterior, b: int, seed: int) -> PosteriorDraws:
    """Draw B values of mu by ancestral sampling from the grid posterior.

    Cells are drawn with replacement proportional to their posterior mass;
    given a cell, mu is drawn by the two-stage scheme of :func:`_draw_mu`
    from the cell's rows of the subset table.  Reproducible given the seed.
    """
    if b < 1:
        raise DomainError(f"draw count must be >= 1, got {b}")
    rng = np.random.default_rng(seed)
    cells = _draw_cells(np.exp(jp.log_mass).ravel(), b, rng)
    g_idx, j_idx = np.unravel_index(cells, jp.log_mass.shape)
    mu = _draw_mu(data, jp.table, jp.space.member_masks[g_idx],
                  jp.space.assignment_array[g_idx], j_idx, rng)
    return PosteriorDraws(
        b=b,
        mu=mu,
        g_indices=g_idx.astype(np.int64),
        delta2_values=jp.grid.deltas2[j_idx],
        seed=seed,
    )


def exact_mixture_moments(data: SurveyData, jp: JointGridPosterior) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic posterior mean and SD of each mu_i from the cell mixture.

    Means are mass-weighted conditional means; variances follow the law of
    total variance over cells.  No Monte Carlo error.  Given its cluster S
    and delta2, source i has mean lam_i y_i + (1 - lam_i) ybar_S and
    variance delta2 (1 - lam_i) + (1 - lam_i)^2 / A_S, so each source needs
    only its cluster's table rows.  Moments are formed about the table's
    shift, so E[x^2] - E[x]^2 does not cancel for offset data.
    """
    t = jp.table
    w = np.exp(jp.log_mass)
    w_cell = w.sum(axis=0)                                   # (R,)
    nu2 = np.zeros_like(t.a)                                 # E[nu_S^2 | cell]
    nu2[1:] = t.ybar[1:] ** 2 + 1.0 / t.a[1:]
    d2 = t.deltas2
    e1 = np.empty(data.l)
    e2 = np.empty(data.l)
    for i in range(data.l):
        rows = jp.space.member_masks[:, i]
        m1 = np.einsum("gr,gr->r", w, t.ybar[rows])
        m2 = np.einsum("gr,gr->r", w, nu2[rows])
        lam = d2 / (d2 + data.v[i])
        oml = data.v[i] / (d2 + data.v[i])
        own = lam * (data.y_hat[i] - t.shift)
        e1[i] = (own * w_cell + oml * m1).sum()
        e2[i] = (w_cell * (d2 * oml + own * own) + 2.0 * own * oml * m1 + oml * oml * m2).sum()
    return t.shift + e1, np.sqrt(e2 - e1 * e1)


@dataclass(frozen=True)
class PartitionMass:
    """One partition's posterior probability, keyed by cluster notation."""

    notation: str
    prob: float
    label: int | None = None   # conventional 1..5 label, only when L = 3


@dataclass(frozen=True)
class SummaryTable:
    """Per-survey posterior summary plus partition probabilities."""

    labels: tuple[str, ...]
    observed: tuple[float, ...]
    post_mean: tuple[float, ...]
    observed_se: tuple[float, ...]
    post_sd: tuple[float, ...]
    ci_lower: tuple[float, ...]
    ci_upper: tuple[float, ...]
    partition_probs: tuple[PartitionMass, ...]
    pool_all: "PoolAllPosterior | None" = None

    def to_dict(self) -> dict:
        d = {
            "rows": [
                {
                    "label": self.labels[i],
                    "observed": self.observed[i],
                    "post_mean": self.post_mean[i],
                    "observed_se": self.observed_se[i],
                    "post_sd": self.post_sd[i],
                    "ci_lower": self.ci_lower[i],
                    "ci_upper": self.ci_upper[i],
                }
                for i in range(len(self.labels))
            ],
            "partition_probs": [
                {"partition": pm.notation, "prob": pm.prob, "label": pm.label}
                for pm in self.partition_probs
            ],
        }
        if self.pool_all is not None:
            d["pool_all"] = {
                "mean": self.pool_all.mean,
                "sd": self.pool_all.sd,
                "ci_lower": self.pool_all.interval[0],
                "ci_upper": self.pool_all.interval[1],
            }
        return d


def summarize(data: SurveyData, jp: JointGridPosterior, draws: PosteriorDraws,
              pool_all: "PoolAllPosterior | None" = None,
              threshold: float = 0.001) -> SummaryTable:
    """Assemble the report table.

    Posterior means and SDs come from the exact mixture; 95% intervals are
    equal-tailed 2.5%/97.5% empirical quantiles of the draws (linear
    interpolation).  Partition probabilities at or above ``threshold`` are
    listed in enumeration order, keyed by cluster notation, with the
    conventional 1..5 labels attached when L = 3.
    """
    mean, sd = exact_mixture_moments(data, jp)
    lo, hi = np.quantile(draws.mu, [0.025, 0.975], axis=0)
    pg = marginal_g(jp)
    probs = []
    for g in np.flatnonzero(pg >= threshold):
        p = jp.space.partitions[g]
        label = display_label_l3(p) if data.l == 3 else None
        probs.append(PartitionMass(notation=p.notation(), prob=float(pg[g]), label=label))
    return SummaryTable(
        labels=data.labels,
        observed=tuple(float(x) for x in data.y_hat),
        post_mean=tuple(float(x) for x in mean),
        observed_se=tuple(float(x) for x in np.sqrt(data.v)),
        post_sd=tuple(float(x) for x in sd),
        ci_lower=tuple(float(x) for x in lo),
        ci_upper=tuple(float(x) for x in hi),
        partition_probs=tuple(probs),
        pool_all=pool_all,
    )
