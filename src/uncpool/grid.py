"""Posterior over (partition, delta2) on the variance grid, and complete pooling on it.

The between-source variance gets an R-point grid placed at the quantiles of
its prior: with theta_j = (j - 1/2) * (pi/2) / R and delta_j = tan(theta_j),
each cell carries prior mass exactly 1/R because arctan(sqrt(delta2)) is
uniform under the inverted-beta prior.  Each (partition, cell) pair is
weighted by the joint kernel of ``model.log_joint_kernel`` times the cell's
prior mass, and every summary reads the normalised weights.

Those weights factorise: the weight of (partition pi, cell j) is
c_j / Bell(L) times the product over the blocks S of pi of
phi(S, j) = exp(-q_S/2 - 1/2), where c_j gathers the factors no block owns.
So no summary needs the Bell(L) x R lattice.  ``kernels.partition_sums``
gives, for every subset U, the sum Z(U, j) over the partitions of U of
their block products, in O(3^L R) time.  From it come the delta2 marginal
p(j), proportional to c_j Z(full, j); the evidence; and the block masses
W[S, j] = p(j) phi(S, j) Z(full - S, j) / Z(full, j), the posterior
probability that S is a block and the cell is j.  The moments, the mixture
CDF, the draws, complete pooling (:func:`pool_all`, the common mean mixed
over p(j)) and the partition listing read these; the lattice itself is
built only when ``JointGridPosterior.log_mass`` is read.
The draws pick the block holding source 0 and the cell together with
numpy's ``Generator.choice`` over the W rows of those blocks.

What depends on the variances and the grid alone (A_S, 1/A_S, the
shrinkage factors, the V-only part of the cell factor, the CDF component
SDs) comes from ``kernels.variance_terms``, built once per (V, grid) and
shared, read-only, by every posterior on them.  What depends on the
estimates (ybar, q, phi, Z and W) is written in place into the rows of one
(5, 2^L, R) array per posterior, so an analysis makes one large
allocation.  The posterior keeps the estimates and variances it was built
from, and every consumer refuses other data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import ComputationError, DomainError
from .io import survey_rows
from .model import SurveyData
from .partitions import (L3_LABELS, Partition, PartitionSpace, bell_number, growth_codes,
                         growth_labels, member_masks, notations)


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
    """Normalised posterior over (partition, cell), held as per-subset sums.

    ``table`` holds the per-subset statistics, ``phi`` the block factors,
    ``z`` the partition sums of ``kernels.partition_sums`` and
    ``block_mass`` W[S, j], the posterior probability that S is a block
    and the cell is j (summed over the subsets holding any one source, W
    gives p(j)).  ``log_cell`` is log(c_j / Bell(L)), the part of a cell's
    log weight that no block owns.  ``y_hat`` and ``v`` are the data the
    posterior was built from; ``table.terms`` holds the V-only arrays of
    ``kernels.variance_terms``.
    """

    grid: DeltaGrid
    table: kernels.SubsetTable
    log_evidence: float
    phi: np.ndarray            # (2^L, R) phi(S, j); 0 for the empty set, never a block
    z: np.ndarray              # (2^L, R) Z(U, j)
    block_mass: np.ndarray     # (2^L, R) W[S, j]
    log_cell: np.ndarray       # (R,)
    delta2_probs: np.ndarray   # (R,) p(j)
    y_hat: np.ndarray          # (L,)
    v: np.ndarray              # (L,)

    @cached_property
    def space(self) -> PartitionSpace:
        """The full partition space of the L sources, built on first read."""
        return PartitionSpace(self.y_hat.size)

    @cached_property
    def log_mass(self) -> np.ndarray:
        """(G, R) normalised log mass of every (partition, cell) pair.

        Built from the table on first read, in O(Bell(L) R) time and memory;
        nothing in the analysis path reads it.
        """
        lm = kernels.q_matrix(self.table, self.space.cluster_masks)
        lm *= -0.5
        lm += (self.log_cell - self.log_evidence)[None, :]
        lm -= 0.5 * self.space.d_array[:, None]
        return lm


def _solve(data: SurveyData, grid: DeltaGrid) -> JointGridPosterior:
    """The posterior of ``data`` on ``grid``; :func:`evaluate_joint` less its check.

    ybar, q, phi, Z and W are the rows of one (5, 2^L, R) array, each
    written in place; phi's row serves as scratch until it is filled.
    """
    y, v, d2 = data.y_hat, data.v, grid.deltas2
    block = np.empty((5, 1 << data.l, grid.r))
    _, q, phi, z, w = block
    table = kernels.subset_table(y, v, d2, out=block[:3])
    np.multiply(q, -0.5, out=phi)
    phi -= 0.5
    np.exp(phi, out=phi)
    phi[0] = 0.0
    kernels.partition_sums(phi, out=z)
    log_cell = table.terms.log_cell + grid.log_prior_mass - math.log(bell_number(data.l))
    log_w = log_cell + np.log(z[-1])
    if not np.all(np.isfinite(log_w)):
        j = int(np.argmin(np.isfinite(log_w)))
        raise ComputationError(f"non-finite posterior weight at grid cell {j} (delta2={d2[j]:g})")
    log_evidence = _logsumexp(log_w)
    p = np.exp(log_w - log_evidence)
    np.multiply(phi, z[::-1], out=w)          # row S of z[::-1] is Z(full - S)
    w *= p / z[-1]
    return JointGridPosterior(grid=grid, table=table, log_evidence=log_evidence, phi=phi, z=z,
                              block_mass=w, log_cell=log_cell, delta2_probs=p, y_hat=y, v=v)


def evaluate_joint(data: SurveyData, space: PartitionSpace, grid: DeltaGrid) -> JointGridPosterior:
    """Normalise the joint posterior over (partition, cell) by the subset recursion.

    Builds the per-subset table once, the block factors phi, the
    partition sums Z of every subset and the block masses W, in O(3^L R)
    time and O(2^L R) memory.  The log evidence is log sum_j c_j Z(full, j)
    - log Bell(L), the log of the mean kernel weight over partitions,
    summed over cells.  ``space`` must be the full enumeration of the L
    sources, which every ``PartitionSpace`` is; only its L is checked
    against the data, and the posterior does not keep it.
    """
    if data.l != space.l:
        raise DomainError(f"data has L={data.l} but partition space has L={space.l}")
    return _solve(data, grid)


def marginal_g(jp: JointGridPosterior) -> np.ndarray:
    """Posterior probability of each partition, in enumeration order.

    The listing of :func:`_listed_partitions` with nothing pruned, so every
    partition of the space; equals the row sums of the lattice view
    ``jp.log_mass`` without building it.
    """
    return _listed_partitions(jp, 0.0)[1]


def marginal_delta2(jp: JointGridPosterior) -> np.ndarray:
    """Posterior mass of each grid cell, p(j)."""
    return jp.delta2_probs.copy()


@dataclass(frozen=True)
class PosteriorDraws:
    """Monte Carlo draws of mu from the grid posterior."""

    b: int
    mu: np.ndarray             # (B, L)
    codes: np.ndarray          # (B,) growth-string code of each draw's partition
    delta2_values: np.ndarray  # (B,) grid delta2 per draw
    seed: int

    @cached_property
    def g_indices(self) -> np.ndarray:
        """(B,) each draw's partition index in the enumeration, built on first read."""
        return PartitionSpace(self.mu.shape[1]).index_of_codes(self.codes)


def _draw_mu(data: SurveyData, table: kernels.SubsetTable, slots: np.ndarray,
             masks: np.ndarray, cols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw mu at given (partition, grid point) pairs, one row per entry of ``cols``.

    ``slots`` (n, L) holds each source's cluster label (its growth-string
    value), ``masks`` (n, L) the bitmask of the cluster holding it
    (:func:`member_masks` of ``slots``) and ``cols`` (n,) the table column.
    Two-stage ancestral scheme: per cluster S, draw the cluster mean
    nu_S ~ N(ybar_S, 1 / A_S), then each member
    mu_i = y_i + (1 - lam_i)(nu_S - y_i) plus an independent
    N(0, delta2 (1 - lam_i)), the conditional posterior of
    :func:`exact_mixture_moments`.
    """
    # The (n, L) work is done in place, because those temporaries set a small
    # run's peak; per-cell factors are gathered from (R, L) views.
    n, l = slots.shape
    terms = table.terms
    flat = masks * table.a.shape[1] + cols[:, None]            # cluster's table entry
    nu = rng.standard_normal((n, l)).take(slots + np.arange(0, n * l, l)[:, None])
    nu /= np.sqrt(table.a.take(flat))
    nu += table.ybar.take(flat)
    nu -= data.y_hat - table.shift                             # nu_S - y_i
    nu *= terms.oml.T.take(cols, axis=0)
    mu = rng.standard_normal(slots.shape)
    mu *= np.sqrt(terms.within.T).take(cols, axis=0)
    mu += nu
    mu += data.y_hat
    return mu


def _draw_mu_for_partition(data: SurveyData, p: Partition, delta2: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw mu at fixed partition, one draw per entry of ``delta2``.

    Uses the scheme of :func:`_draw_mu` on a table over the distinct
    ``delta2`` values.
    """
    d2, cols = np.unique(delta2, return_inverse=True)
    table = kernels.subset_table(data.y_hat, data.v, d2)
    labels = np.array(p.assignment)
    shape = (delta2.shape[0], p.l)
    return _draw_mu(data, table, np.broadcast_to(labels, shape),
                    np.broadcast_to(member_masks(labels), shape), cols, rng)


@lru_cache(maxsize=None)
def _block_codes(l: int) -> np.ndarray:
    """(2^L,) growth-string code of the labels that put 1 on subset S and 0 elsewhere."""
    return growth_codes(kernels.membership(l).T.astype(np.int64))


def _peel(jp: JointGridPosterior, first: np.ndarray, cols: np.ndarray,
          rng: np.random.Generator) -> np.ndarray:
    """Complete partitions whose first block is drawn; returns their growth-string codes.

    Blocks are peeled in order of their smallest member, so the k-th block
    carries label k.  Given the sources U still unassigned and the cell j,
    the next block T (holding min U) has probability
    phi(T, j) Z(U - T, j) / Z(U, j).  A lone remaining source is its own
    block and takes no random number.  Each round builds the CDF over the
    candidate blocks once per distinct (U, j) among the draws, padded to
    the largest candidate count with the empty set (phi = 0), and each
    draw finds its block by a binary search of its pair's CDF.  Many draws
    share a pair, so this beats gathering a CDF row per draw: about 2x at
    L = 3, R = 2000 and 12x at L = 8, R = 200, for 5000 draws.
    """
    l, r = jp.y_hat.size, jp.grid.r
    splits = kernels.subset_splits(l)
    weight = _block_codes(l)
    phi, z = jp.phi.ravel(), jp.z.ravel()
    slot = np.empty(phi.shape[0], dtype=np.int64)      # scratch, indexed by U * R + j
    codes = np.zeros(first.shape[0], dtype=np.int64)   # the first block has label 0
    todo = np.arange(first.shape[0])                    # the draws still being peeled
    u = ((1 << l) - 1) ^ first                          # their sources still unassigned
    label = 1
    while True:
        # index arrays and take, not boolean masks: masks over random draws are slower
        lone = (u & (u - 1)) == 0                      # one source left, or none
        at = np.flatnonzero(lone)
        codes[todo.take(at)] += label * weight.take(u.take(at))
        at = np.flatnonzero(~lone)
        if not at.size:
            return codes
        todo, u, cols = todo.take(at), u.take(at), cols.take(at)
        # number the distinct (U, j) pairs through the scratch slots
        n = todo.size
        key = u * r + cols
        slot[key] = np.arange(n)
        firsts = np.flatnonzero(slot[key] == np.arange(n))
        slot[key[firsts]] = np.arange(firsts.size)
        pair = slot[key]
        pu, pj = u[firsts], cols[firsts]
        count = splits.count[pu]
        k = np.arange(count.max())[:, None]
        valid = k < count
        rows = np.where(valid, splits.start[pu] + k, 0)
        blocks = np.where(valid, splits.block[rows], 0)        # (K, pairs)
        cdf = phi.take(blocks * r + pj)
        cdf *= z.take(splits.rest[rows] * r + pj)
        for i in range(1, cdf.shape[0]):     # row by row: np.cumsum(axis=0) is slower
            cdf[i] += cdf[i - 1]
        cdf, blocks = cdf.T.ravel(), blocks.T.ravel()
        span = k.shape[0]                                       # a power of two
        pos = pair * span
        target = rng.random(n)
        target *= cdf.take(pos + (span - 1))
        half = span >> 1
        while half:                          # step pos past the CDF entries below target
            pos += half * (cdf.take(pos + (half - 1)) < target)
            half >>= 1
        block = blocks.take(pos)
        codes[todo] += label * weight.take(block)
        u ^= block
        label += 1


def _labels_and_masks(codes: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, L) :func:`growth_labels` and :func:`member_masks` of each of (n,) codes.

    Both are built once per distinct code and gathered back: 5000 draws at
    L = 8 hold about 110 distinct partitions.  The codes are grouped by
    ``argsort``, as ``np.unique`` would, without ``np.unique``'s import of
    ``numpy.ma``.
    """
    order = np.argsort(codes)
    ranked = codes[order]
    new = np.r_[True, ranked[1:] != ranked[:-1]]
    which = np.empty_like(order)
    which[order] = np.cumsum(new) - 1
    labels = growth_labels(ranked[new], l)
    return labels.take(which, axis=0), member_masks(labels).take(which, axis=0)


def sample_mu(data: SurveyData, jp: JointGridPosterior, b: int, seed: int) -> PosteriorDraws:
    """Draw B values of mu by ancestral sampling from the grid posterior.

    The block holding source 0 and the cell are drawn together from the
    block masses W by ``rng.choice``; the other blocks are peeled off by
    :func:`_peel`, and mu is then drawn by the two-stage scheme of
    :func:`_draw_mu` from the cell's rows of the subset table.
    Reproducible given the seed.
    """
    _check_sources(data, jp)
    if b < 1:
        raise DomainError(f"draw count must be >= 1, got {b}")
    rng = np.random.default_rng(seed)
    r = jp.grid.r
    mass = jp.block_mass[1::2].ravel()   # odd S hold source 0
    cells = rng.choice(mass.size, b, p=mass / mass.sum())
    first, j_idx = np.divmod(cells, r)
    first = 2 * first + 1
    codes = _peel(jp, first, j_idx, rng)
    mu = _draw_mu(data, jp.table, *_labels_and_masks(codes, data.l), j_idx, rng)
    return PosteriorDraws(
        b=b,
        mu=mu,
        codes=codes,
        delta2_values=jp.grid.deltas2[j_idx],
        seed=seed,
    )


def exact_mixture_moments(data: SurveyData, jp: JointGridPosterior) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic posterior mean and SD of each mu_i from the block masses.

    Given its block S and cell j, mu_i = y_i + (1 - lam_i)(nu_S - y_i) plus
    an independent N(0, delta2 (1 - lam_i)), with nu_S ~ N(ybar_S, 1/A_S).
    Summing W[S, j] over the blocks S holding i mixes these exactly, with
    no partition axis and no Monte Carlo error; variances follow the law of
    total variance.  Moments are formed about each source's own estimate,
    so every term that can be large carries 1 - lam_i: E[x^2] - E[x]^2
    cancels neither for offset data nor for sources whose SE is tiny
    against the spread of the estimates, where 1 - lam_i is tiny too.
    """
    _check_sources(data, jp)
    t, p, terms = jp.table, jp.delta2_probs, jp.table.terms
    member = kernels.membership(data.l)                      # (L, 2^L)
    w = jp.block_mass
    nu2 = t.ybar * t.ybar                                     # E[nu_S^2 | cell]
    nu2[1:] += terms.inv_a[1:]
    nu2 *= w
    m1 = np.einsum("is,sr->ir", member, w * t.ybar)            # (L, R)
    m2 = np.einsum("is,sr->ir", member, nu2)
    c = (data.y_hat - t.shift)[:, None]                        # y_i in the table's terms
    d1 = m1 - c * p                                           # sum_S W (nu_S - y_i)
    m2 -= c * (m1 + d1)                                       # sum_S W (nu_S - y_i)^2
    e1 = (terms.oml * d1).sum(axis=1)                         # E[mu_i - y_i]
    e2 = (p * terms.within + terms.oml * terms.oml * m2).sum(axis=1)
    return data.y_hat + e1, np.sqrt(e2 - e1 * e1)


#: Most float64 values each array of one :func:`mixture_cdf` column block
#: holds.  Arrays this small come from the heap's free lists; larger ones
#: are mapped afresh on every call and page-faulted in.
_CDF_CELLS = 1 << 13

#: Largest posterior delta2 mass :func:`covers95` leaves out of its first,
#: partial CDF sum.  The grid gives every cell equal prior mass, so p(j)
#: thins out along the grid's long upper tail, and all but 1e-4 of it
#: typically sits in the first tenth of the cells.
_TAIL_MASS = 1e-4

#: Allowance for rounding in :func:`covers95`'s bracket, far above the
#: about 1e-12 by which two sums of the same mixture can differ.
_ROUNDING = 1e-9


def _check_sources(data: SurveyData, jp: JointGridPosterior) -> None:
    """Refuse data other than those ``jp`` was built from."""
    if data.l != jp.y_hat.size:
        raise DomainError(f"data has L={data.l} but the posterior was built for L={jp.y_hat.size}")
    # SurveyData owns read-only arrays, so the same array means the same values
    differ = [name for name, ours, theirs in (("estimates", data.y_hat, jp.y_hat),
                                              ("variances", data.v, jp.v))
              if ours is not theirs and not np.array_equal(ours, theirs)]
    if differ:
        raise DomainError(f"the posterior was built from other {' and '.join(differ)} "
                          "than these data")


def _checked_point(data: SurveyData, jp: JointGridPosterior, x) -> np.ndarray:
    _check_sources(data, jp)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (data.l,):
        raise DomainError(f"need one point per source, shape ({data.l},), got {x.shape}")
    return x


def _cdf_sum(data: SurveyData, jp: JointGridPosterior, x: np.ndarray, stop: int) -> np.ndarray:
    """(L,) the sum of :func:`mixture_cdf` over the cells [0, stop) only."""
    t, w, terms = jp.table, jp.block_mass, jp.table.terms
    c = (data.y_hat - t.shift)[:, None, None]               # y_i in the table's terms
    gap = (data.y_hat - x)[:, None, None]
    sd = terms.cdf_sd                                       # sqrt(2 s^2)
    held = kernels.holders(data.l)
    total = np.zeros(data.l)
    step = max(1, _CDF_CELLS // held.size)
    for c0 in range(0, stop, step):
        cols = slice(c0, min(c0 + step, stop))
        arg = t.ybar[:, cols].take(held, axis=0)          # (L, H, cells), then (m - x) / sd
        arg -= c
        arg *= terms.oml[:, None, cols]
        arg += gap
        arg /= sd[:, :, cols]
        total += np.einsum("lhr,lhr->l", w[:, cols].take(held, axis=0), kernels.erfc(arg))
    total *= 0.5
    return total


def mixture_cdf(data: SurveyData, jp: JointGridPosterior, x) -> np.ndarray:
    """(L,) posterior probability that mu_i <= x_i, for every source i.

    mu_i's posterior is a finite normal mixture: one component per block
    S holding i and cell j, with weight W[S, j], mean
    m = y_i + (1 - lam_i)(ybar_S - y_i) and variance
    s^2 = delta2 (1 - lam_i) + (1 - lam_i)^2 / A_S, as in
    :func:`exact_mixture_moments`.  So F_i(x_i) is exactly
    1/2 sum W[S, j] erfc((m - x_i) / sqrt(2 s^2)), summed over
    (L, 2^(L-1), cells) arrays, a block of cells at a time, with no draws.
    m - x_i is formed as (1 - lam_i)(ybar_S - y_i) + (y_i - x_i), so
    offset data and precise sources lose no digits.  :func:`covers95`
    decides interval coverage from a prefix of the cells and calls this
    only when the prefix cannot.
    """
    x = _checked_point(data, jp, x)
    return _cdf_sum(data, jp, x, jp.grid.r)


def covers95(data: SurveyData, jp: JointGridPosterior, x) -> np.ndarray:
    """(L,) whether x_i lies in source i's exact equal-tailed 95% interval.

    That is 0.025 <= F_i(x_i) <= 0.975, decided as from the full
    :func:`mixture_cdf` but mostly from a prefix of the cells.  Take the
    shortest prefix [0, k) whose tail mass eps = sum_{j >= k} p(j) is at
    most ``_TAIL_MASS``.  Summed over the blocks holding i, W gives p(j),
    and each component's CDF lies in [0, 1], so F_i(x_i) lies in
    [F_prefix, F_prefix + eps].  When that bracket, widened by
    ``_ROUNDING``, holds neither bound for any source, every point of it,
    the full sum included, gives the same decision; otherwise, and when no
    tail is negligible (k = R), the full sum decides.
    """
    x = _checked_point(data, jp, x)
    tail = np.cumsum(jp.delta2_probs[::-1])      # tail[n - 1]: mass of the last n cells
    n = int(tail.searchsorted(_TAIL_MASS, side="right"))
    if n:
        f = _cdf_sum(data, jp, x, jp.grid.r - n)
        lo, hi = f - _ROUNDING, f + (tail[n - 1] + _ROUNDING)
        if all(np.all((hi < b) | (lo > b)) for b in TAILS):
            return (f >= TAILS[0]) & (f <= TAILS[1])
    f = mixture_cdf(data, jp, x)
    return (f >= TAILS[0]) & (f <= TAILS[1])


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
    :func:`evaluate_joint` is built, with no partition enumerated.
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
    pool_all: PoolAllPosterior | None = None

    def to_dict(self) -> dict:
        d = {
            "rows": survey_rows(self.labels, self.observed, self.post_mean, self.observed_se,
                                self.post_sd, self.ci_lower, self.ci_upper),
            "partition_probs": [
                {"partition": pm.notation, "prob": pm.prob, "label": pm.label}
                for pm in self.partition_probs
            ],
        }
        if self.pool_all is not None:
            d["pool_all"] = self.pool_all.to_dict()
        return d


#: Most float64 values each array of one chunk of :func:`_listed_partitions`
#: holds, unless one prefix's splits need more.  Listing every partition
#: then holds about one chunk per block label, not the Bell(L) x R
#: frontier; smaller chunks also ran faster: ``marginal_g`` at L = 9,
#: R = 2000 took 170 ms at 2^16 values, 200 ms at 2^20 and 450 ms unchunked.
_LIST_CELLS = 1 << 16


def _listed_partitions(jp: JointGridPosterior, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Codes and probabilities of the partitions with p(pi) >= threshold, in space order.

    Partitions are named by their growth-string codes, which ascend with
    the enumeration.  Grows partitions block by block, smallest member
    first.  A prefix of blocks T_1..T_k with the sources U still free has
    mass sum_j p(j) prod phi(T_i, j) Z(U, j) / Z(full, j), the total of
    its completions, so no completion outweighs its prefix; prefixes
    lighter than the threshold (less a relative 1e-12 for rounding) are
    dropped.
    A prefix that leaves at most one source free is complete, the lone
    source being the last block (Z of a single source is its phi), and
    its mass is the exact p(pi).
    Prefixes are grown depth first, in chunks of about ``_LIST_CELLS`` /
    R splits (one prefix at least), so memory stays bounded at
    threshold 0, where every partition is listed; each prefix's mass is
    the same row sum whatever chunk holds it.
    """
    l = jp.y_hat.size
    splits = kernels.subset_splits(l)
    weight = _block_codes(l)
    cut = threshold * (1.0 - 1e-12)
    budget = _LIST_CELLS // jp.grid.r
    # each entry: the free sources U of some prefixes, their p(j) prod phi / Z(full)
    # rows, their codes so far, and the label of their next block
    todo = [(np.array([(1 << l) - 1]), (jp.delta2_probs / jp.z[-1])[None, :],
             np.zeros(1, dtype=np.int64), 0)]
    found_codes, found_probs = [], []
    while todo:
        rest, scale, codes, label = todo.pop()
        count = splits.count[rest]
        ends = np.cumsum(count)
        n = max(1, int(ends.searchsorted(budget, side="right")))
        if n < rest.size:
            todo.append((rest[n:], scale[n:], codes[n:], label))
            rest, scale, codes, count, ends = rest[:n], scale[:n], codes[:n], count[:n], ends[:n]
        parent = np.repeat(np.arange(n), count)
        rows = np.arange(ends[-1]) + (splits.start[rest] - ends + count)[parent]
        block, left = splits.block[rows], splits.rest[rows]
        scale = scale.take(parent, axis=0)
        scale *= jp.phi.take(block, axis=0)
        mass = np.einsum("nr,nr->n", scale, jp.z.take(left, axis=0))
        codes = codes[parent] + label * weight[block]
        keep = mass >= cut
        lone = (left & (left - 1)) == 0        # what is left, if anything, is one block
        done = np.flatnonzero(keep & lone)
        found_codes.append(codes[done] + (label + 1) * weight[left[done]])
        found_probs.append(mass[done])
        go = np.flatnonzero(keep & ~lone)
        if go.size:
            todo.append((left[go], scale.take(go, axis=0), codes[go], label + 1))
    codes, probs = np.concatenate(found_codes), np.concatenate(found_probs)
    keep = np.flatnonzero(probs >= threshold)
    order = keep[np.argsort(codes[keep])]
    return codes[order], probs[order]


#: Quantile levels of the reported equal-tailed 95% intervals.
TAILS = (0.025, 0.975)


def order_statistics(x, ks) -> np.ndarray:
    """(len(ks), ...) the ks-th smallest values of ``x`` along axis 0; NaN sorts last.

    Reads them from one sorted copy with axis 0 moved last, so the sort runs
    along contiguous memory: numpy 2.4.6 sorts float64 rows with AVX-512
    where the CPU has it, and on (5000, 8) draws this took 0.19-0.22 ms,
    where ``ndarray.partition`` at six order statistics along the strided
    axis 0 took 0.79-0.94 ms.  An order statistic is one value whichever
    algorithm finds it, so every reader gets the bits a partition gives;
    of tied zeros of either sign, the median tests pin the one numpy picks.
    """
    arr = np.array(np.moveaxis(np.asarray(x, dtype=np.float64), 0, -1), order="C")
    arr.sort(axis=-1)
    return np.moveaxis(arr[..., ks], -1, 0)


def interval95(x: np.ndarray) -> np.ndarray:
    """(2, ...) 2.5% and 97.5% quantiles of ``x`` along axis 0.

    Equals ``np.quantile(x, [0.025, 0.975], axis=0)`` bit for bit: numpy's
    "linear" method step for step, reading the same order statistics (the
    floor and ceiling of (n-1)q, and the last) from
    :func:`order_statistics`, which sorts a copy rather than partition one
    because a contiguous sort is the faster, and interpolating with numpy's
    two-sided lerp.  ``np.quantile`` lists those order statistics with
    ``np.unique``, which imports ``numpy.ma``: 10-20 ms of every CLI
    process with numpy 2.4.6, by ``python -X importtime``.  A column
    holding a NaN gets NaN at both ends.
    """
    n = np.shape(x)[0]
    lower, upper, gamma = [], [], []
    for q in TAILS:
        virtual = (n - 1) * q
        if virtual >= n - 1:          # at the last value: numpy reads index -1 twice
            lo = hi = -1
        else:
            lo = math.floor(virtual)
            hi = lo + 1
        lower.append(lo)
        upper.append(hi)
        gamma.append(virtual - lo)
    stats = order_statistics(x, [*lower, *upper, -1])
    a, b, last = stats[:2], stats[2:4], stats[4]
    t = np.array(gamma).reshape((len(TAILS),) + (1,) * (stats.ndim - 1))
    diff = b - a
    out = np.add(a, diff * t)
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    nan = np.isnan(last)
    if nan.any():
        np.copyto(out, last, where=nan)
    return out


def summarize(data: SurveyData, jp: JointGridPosterior, draws: PosteriorDraws,
              pool_all: PoolAllPosterior | None = None,
              threshold: float = 0.001) -> SummaryTable:
    """Assemble the report table.

    Posterior means and SDs come from the exact mixture; 95% intervals are
    equal-tailed 2.5%/97.5% empirical quantiles of the draws (linear
    interpolation).  Partition probabilities at or above ``threshold``,
    found by :func:`_listed_partitions` without the lattice, are listed in
    enumeration order, keyed by cluster notation, with the conventional
    1..5 labels attached when L = 3.
    """
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"threshold must be a probability in [0, 1], got {threshold}")
    _check_sources(data, jp)
    if draws.mu.ndim != 2 or draws.mu.shape[1] != data.l:
        raise DomainError(f"draws of mu must have one column per source, L={data.l}; "
                          f"got shape {draws.mu.shape}")
    mean, sd = exact_mixture_moments(data, jp)
    lo, hi = interval95(draws.mu)
    listed, listed_probs = _listed_partitions(jp, threshold)
    labels = growth_labels(listed, data.l)
    names = notations(labels)
    l3 = ([L3_LABELS[tuple(row)] for row in labels.tolist()] if data.l == 3
          else [None] * len(names))
    probs = tuple(PartitionMass(notation=name, prob=prob, label=label)
                  for name, prob, label in zip(names, listed_probs.tolist(), l3))
    return SummaryTable(
        labels=data.labels,
        observed=tuple(float(x) for x in data.y_hat),
        post_mean=tuple(float(x) for x in mean),
        observed_se=tuple(float(x) for x in np.sqrt(data.v)),
        post_sd=tuple(float(x) for x in sd),
        ci_lower=tuple(float(x) for x in lo),
        ci_upper=tuple(float(x) for x in hi),
        partition_probs=probs,
        pool_all=pool_all,
    )
