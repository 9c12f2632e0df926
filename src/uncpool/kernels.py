"""The per-subset engine every grid consumer reads, and the DPM Gibbs chain.

Everything a partition contributes at a grid point depends only on sums over
its clusters.  With w_i = 1/(delta2 + V_i), cluster S has precision
A_S = sum w_i, precision-weighted mean ybar_S = B_S / A_S and within-cluster
misfit

    q_S = sum_{i in S} w_i * (y_i - ybar_S)^2 = C_S - B_S^2 / A_S

where B_S and C_S are the cluster sums of w_i*y_i and w_i*y_i^2.
:func:`subset_table` computes (A_S, ybar_S, q_S) once for every subset of
the sources on the whole grid.  The partition misfit, the mixture moments,
the posterior draws, complete pooling and the exact DPM oracle all read that
one table; ``model.py`` keeps the scalar per-cluster formulas as the
reference.

C - B^2/A cancels catastrophically when the estimates share a large offset,
so y is first centred on its precision-weighted mean (Chan, Golub & LeVeque
1983, "Algorithms for computing the sample variance").  The table stores
``ybar`` centred and records the offset as ``shift``.

The model's weight of a (partition, grid point) pair is a per-point factor
times a product over the partition's clusters of phi(S) = exp(-q_S/2 - 1/2)
(a product partition model: Hartigan 1990, "Partition models", Comm.
Statist. 19).  So every sum over partitions is a recursion over subsets,
:func:`partition_sums`, which visits each split of a subset into a block and
a rest once: (3^L - 1)/2 splits per grid point instead of Bell(L)
partitions.  :func:`subset_splits` lists those splits once per L.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class SubsetTable:
    """(A_S, ybar_S, q_S) for every subset S of the L sources at each grid point.

    Rows are indexed by the subset's bitmask, bit i set when source i is a
    member.  Row 0, the empty set, is all zeros; it pads the cluster lists
    of partitions with fewer than L clusters.
    """

    deltas2: np.ndarray  # (R,)
    shift: float         # precision-weighted mean of y, removed before summing
    a: np.ndarray        # (2^L, R) A_S
    ybar: np.ndarray     # (2^L, R) ybar_S - shift
    q: np.ndarray        # (2^L, R) q_S


def subset_table(y, v, deltas2) -> SubsetTable:
    """Per-subset sums of the centred estimates on the delta2 grid.

    The subsets holding source i as their highest member are the subsets of
    sources 0..i-1 with i added, so one block addition per source builds
    all 2^L rows.
    """
    L = y.shape[0]
    shift = float((y / v).sum() / (1.0 / v).sum())
    yc = y - shift
    w = 1.0 / (deltas2[None, :] + v[:, None])               # (L, R)
    terms = np.stack([w, w * yc[:, None], w * (yc * yc)[:, None]])  # (3, L, R)
    sums = np.zeros((3, 1 << L, deltas2.shape[0]))
    for i in range(L):
        lo = 1 << i
        np.add(sums[:, :lo], terms[:, i, None, :], out=sums[:, lo:2 * lo])
    a, ybar, q = sums              # B and C, overwritten in place below
    ybar[1:] /= a[1:]
    q[1:] -= ybar[1:] * ybar[1:] * a[1:]
    return SubsetTable(deltas2=deltas2, shift=shift, a=a, ybar=ybar, q=q)


def q_matrix(table: SubsetTable, cluster_masks: np.ndarray) -> np.ndarray:
    """(G, R) within-cluster misfit of every (partition, grid point) pair.

    ``cluster_masks`` is ``PartitionSpace.cluster_masks``: row g lists the
    bitmasks of partition g's clusters, padded with the empty set.  Only
    the lattice view ``JointGridPosterior.log_mass`` reads it.
    """
    G, L = cluster_masks.shape
    out = np.take(table.q, cluster_masks[:, 0], axis=0)
    rows = np.empty_like(out)
    for k in range(1, L):
        # masks are in range by construction; mode="raise" would buffer ``out``
        np.take(table.q, cluster_masks[:, k], axis=0, out=rows, mode="clip")
        out += rows
    return out


@lru_cache(maxsize=None)
def membership(l: int) -> np.ndarray:
    """(L, 2^L) float 0/1 matrix, 1 where source i belongs to subset S (read-only)."""
    out = ((np.arange(1 << l) >> np.arange(l)[:, None]) & 1).astype(np.float64)
    out.flags.writeable = False
    return out


class SubsetSplits(NamedTuple):
    """Every split of a nonempty subset U into a block T holding min U and the rest U - T.

    Rows are ordered by |U|, then U, then T.  Each popcount layer is thus
    one run of rows in which every U owns 2^(|U|-1) consecutive rows, and
    a subset's rest always lies in an earlier layer.
    """

    block: np.ndarray    # (N,) T, N = (3^L - 1) / 2
    rest: np.ndarray     # (N,) U - T
    start: np.ndarray    # (2^L,) U's first row
    count: np.ndarray    # (2^L,) 2^(|U|-1) rows per U, 0 for the empty set
    layers: tuple[tuple[np.ndarray, slice], ...]   # per |U| = 1..L: the U, their rows


@lru_cache(maxsize=None)
def subset_splits(l: int) -> SubsetSplits:
    """The splits of every nonempty subset of L sources, built once per L.

    Each U starts with the one block {min U}; for each other member i of U,
    every block so far is kept once without i and once with it.
    """
    sizes = membership(l).sum(axis=0).astype(np.int64)     # |S| for every subset S
    owner = np.arange(1, 1 << l, dtype=np.int64)
    block = owner & -owner
    for i in range(l):
        bit = 1 << i
        free = ((owner & bit) != 0) & ((owner & -owner) != bit)
        reps = 1 + free
        second = np.cumsum(reps)[free] - 1
        owner, block = np.repeat(owner, reps), np.repeat(block, reps)
        block[second] |= bit
    size = sizes[owner]
    order = np.argsort((size << (2 * l)) | (owner << l) | block)
    owner, block, size = owner[order], block[order], size[order]
    start = np.zeros(1 << l, dtype=np.int64)
    firsts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    start[owner[firsts]] = firsts
    count = np.zeros(1 << l, dtype=np.int64)
    count[1:] = 1 << (sizes[1:] - 1)
    bounds = np.searchsorted(size, np.arange(1, l + 2))
    layers = tuple((owner[lo:hi:1 << (c - 1)], slice(int(lo), int(hi)))
                   for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), start=1))
    for a in (owner, block, start, count):
        a.flags.writeable = False
    return SubsetSplits(block=block, rest=owner ^ block, start=start, count=count,
                        layers=layers)


#: Most float64 values one layer of :func:`partition_sums` holds at once;
#: wider grids are summed in column blocks.
_SPLIT_CELLS = 1 << 22


def partition_sums(phi: np.ndarray) -> np.ndarray:
    """(2^L, R) sums over the partitions of every subset U of products of phi.

    Z(empty) = 1 and Z(U, j) = sum over T in U holding min U of
    phi(T, j) Z(U - T, j), so Z(U, j) is the sum over all partitions of U
    of the product of phi over their blocks.  Built layer by layer in |U|:
    each layer gathers its splits' block and rest rows and sums each U's
    2^(|U|-1) products.  Costs (3^L - 1)/2 products per grid point.
    """
    n_sub, r = phi.shape
    splits = subset_splits(n_sub.bit_length() - 1)
    z = np.empty_like(phi)
    z[0] = 1.0
    widest = max(rows.stop - rows.start for _, rows in splits.layers)
    step = max(1, _SPLIT_CELLS // widest)
    for c0 in range(0, r, step):
        ph, zc = phi[:, c0:c0 + step], z[:, c0:c0 + step]   # views of one column block
        for us, rows in splits.layers:
            if us.shape[0] == rows.stop - rows.start:    # singletons: Z({i}) = phi({i})
                zc[us] = ph[us]
                continue
            prod = ph.take(splits.block[rows], axis=0)
            prod *= zc.take(splits.rest[rows], axis=0)
            zc[us] = prod.reshape(us.shape[0], -1, prod.shape[1]).sum(axis=1)
    return z


# ---------------------------------------------------------------------------
# Dirichlet-process-mixture collapsed Gibbs chain (Neal 2000, Algorithm 3).
#
# The chain consumes pre-drawn variates, so the seed alone fixes its
# trajectory: uniforms (T, L) drive the assignment choices, norm_phi (T, L)
# the cluster-value draws, norm_eta (T,) the base-mean draw, and
# gammas[t, k-1] ~ Gamma(phi1/2 + k/2, 1) the precision draw used when k
# clusters are realized at sweep t.  The hyperprior shape phi1 enters only
# through these pre-drawn shapes, so the chain itself does not take it.
# ---------------------------------------------------------------------------

def dpm_chain(y, v, m, eta_b, s_b, phi2, eta0, tau20,
              update_eta, update_tau2, burn, thin,
              uniforms, norm_phi, norm_eta, gammas):
    T, L = uniforms.shape
    y, v = y.tolist(), v.tolist()
    keep = range(burn, T, thin)
    z_hist = np.empty((len(keep), L), dtype=np.int64)
    theta_hist = np.empty((len(keep), L))
    eta_hist = np.empty(len(keep))
    tau2_hist = np.empty(len(keep))

    # cluster c is the ascending member list clusters[c]
    clusters = [[i] for i in range(L)]
    eta, tau2 = eta0, tau20
    log_m, log2pi = math.log(m), math.log(2.0 * math.pi)

    def posterior(members):
        """Mean and variance of a cluster's value given its members."""
        prec, num = 1.0 / tau2, eta / tau2
        for j in members:
            prec += 1.0 / v[j]
            num += y[j] / v[j]
        return num / prec, 1.0 / prec

    for t in range(T):
        u = uniforms[t].tolist()
        for i in range(L):
            # detach i; deleting an emptied cluster shifts later labels down
            c = next(c for c, members in enumerate(clusters) if i in members)
            clusters[c].remove(i)
            if not clusters[c]:
                del clusters[c]
            # posterior predictive weight for each existing cluster, then a new one
            logw = []
            for members in clusters:
                mc, sc = posterior(members)
                tot = sc + v[i]
                logw.append(math.log(len(members)) - 0.5 * (log2pi + math.log(tot))
                            - 0.5 * (y[i] - mc) ** 2 / tot)
            tot = tau2 + v[i]
            logw.append(log_m - 0.5 * (log2pi + math.log(tot)) - 0.5 * (y[i] - eta) ** 2 / tot)
            mx = max(logw)
            acc = list(accumulate([math.exp(lw - mx) for lw in logw]))
            target = u[i] * acc[-1]
            pick = next((c for c, a in enumerate(acc) if a >= target), len(clusters))
            if pick < len(clusters):
                insort(clusters[pick], i)
            else:
                clusters.append([i])
        # cluster values, base mean, base variance
        phi = []
        for members, n in zip(clusters, norm_phi[t].tolist()):
            mc, sc = posterior(members)
            phi.append(mc + math.sqrt(sc) * n)
        k = len(clusters)
        if update_eta:
            prec, num = 1.0 / s_b + k / tau2, eta_b / s_b
            for p in phi:
                num += p / tau2
            eta = num / prec + math.sqrt(1.0 / prec) * float(norm_eta[t])
        if update_tau2:
            rate = phi2 / 2.0
            for p in phi:
                rate += 0.5 * (p - eta) ** 2
            tau2 = rate / float(gammas[t, k - 1])
        if t in keep:
            row = (t - burn) // thin
            z = [0] * L
            for c, members in enumerate(clusters):
                for j in members:
                    z[j] = c
            z_hist[row] = z
            theta_hist[row] = [phi[c] for c in z]
            eta_hist[row] = eta
            tau2_hist[row] = tau2
    return z_hist, theta_hist, eta_hist, tau2_hist
