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
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from itertools import accumulate

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
        sums[:, lo:2 * lo] = sums[:, :lo] + terms[:, i, None, :]
    a, ybar, q = sums              # B and C, overwritten in place below
    ybar[1:] /= a[1:]
    q[1:] -= ybar[1:] * ybar[1:] * a[1:]
    return SubsetTable(deltas2=deltas2, shift=shift, a=a, ybar=ybar, q=q)


def q_matrix(table: SubsetTable, cluster_masks: np.ndarray) -> np.ndarray:
    """(G, R) within-cluster misfit of every (partition, grid point) pair.

    ``cluster_masks`` is ``PartitionSpace.cluster_masks``: row g lists the
    bitmasks of partition g's clusters, padded with the empty set.
    """
    G, L = cluster_masks.shape
    out = np.take(table.q, cluster_masks[:, 0], axis=0)
    rows = np.empty_like(out)
    for k in range(1, L):
        # masks are in range by construction; mode="raise" would buffer ``out``
        np.take(table.q, cluster_masks[:, k], axis=0, out=rows, mode="clip")
        out += rows
    return out


# ---------------------------------------------------------------------------
# Dirichlet-process-mixture collapsed Gibbs chain (Neal 2000, Algorithm 3).
#
# The chain consumes pre-drawn variates, so the seed alone fixes its
# trajectory: uniforms (T, L) drive the assignment choices, norm_phi (T, L)
# the cluster-value draws, norm_eta (T,) the base-mean draw, and
# gammas[t, k-1] ~ Gamma(phi1/2 + k/2, 1) the precision draw used when k
# clusters are realized at sweep t.
# ---------------------------------------------------------------------------

def dpm_chain(y, v, m, eta_b, s_b, phi1, phi2, eta0, tau20,
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
