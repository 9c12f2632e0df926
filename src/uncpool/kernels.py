"""The per-subset engine every grid consumer reads, and the DPM Gibbs chain.

Everything a partition contributes at a grid point depends only on sums over
its clusters.  With w_i = 1/(delta2 + V_i), cluster S has precision
A_S = sum w_i, precision-weighted mean ybar_S = B_S / A_S and within-cluster
misfit

    q_S = sum_{i in S} w_i * (y_i - ybar_S)^2 = C_S - B_S^2 / A_S

where B_S and C_S are the cluster sums of w_i*y_i and w_i*y_i^2.
:func:`subset_table` computes (A_S, ybar_S, q_S) once for every subset of
the sources on the whole grid.  The partition misfit, the mixture moments,
the posterior draws and complete pooling all read that one table;
``model.py`` keeps the scalar per-cluster formulas as the reference.

C - B^2/A cancels catastrophically when the estimates share a large offset,
so y is first centred on its precision-weighted mean (Chan, Golub & LeVeque
1983, "Algorithms for computing the sample variance").  The table stores
``ybar`` centred and records the offset as ``shift``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Dirichlet-process-mixture collapsed Gibbs chain.
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
    kept = 0
    for t in range(burn, T):
        if (t - burn) % thin == 0:
            kept += 1
    z_hist = np.empty((kept, L), dtype=np.int64)
    theta_hist = np.empty((kept, L))
    eta_hist = np.empty(kept)
    tau2_hist = np.empty(kept)

    z = np.arange(L)
    eta = eta0
    tau2 = tau20
    counts = np.empty(L, dtype=np.int64)
    remap = np.empty(L, dtype=np.int64)
    logw = np.empty(L + 1)
    prob = np.empty(L + 1)
    phi = np.empty(L)
    row = 0
    log2pi = np.log(2.0 * np.pi)

    for t in range(T):
        for i in range(L):
            # detach i and compact the remaining labels
            z[i] = -1
            for k in range(L):
                counts[k] = 0
            for j in range(L):
                if z[j] >= 0:
                    counts[z[j]] += 1
            k = 0
            for c in range(L):
                if counts[c] > 0:
                    remap[c] = k
                    k += 1
            for j in range(L):
                if z[j] >= 0:
                    z[j] = remap[z[j]]
            # posterior predictive weight for each existing cluster
            for c in range(k):
                prec = 1.0 / tau2
                num = eta / tau2
                n_c = 0
                for j in range(L):
                    if z[j] == c:
                        prec += 1.0 / v[j]
                        num += y[j] / v[j]
                        n_c += 1
                mc = num / prec
                sc = 1.0 / prec
                tot = sc + v[i]
                logw[c] = np.log(n_c) - 0.5 * (log2pi + np.log(tot)) \
                    - 0.5 * (y[i] - mc) ** 2 / tot
            tot = tau2 + v[i]
            logw[k] = np.log(m) - 0.5 * (log2pi + np.log(tot)) \
                - 0.5 * (y[i] - eta) ** 2 / tot
            mx = logw[0]
            for c in range(1, k + 1):
                if logw[c] > mx:
                    mx = logw[c]
            tot = 0.0
            for c in range(k + 1):
                prob[c] = np.exp(logw[c] - mx)
                tot += prob[c]
            target = uniforms[t, i] * tot
            acc = 0.0
            pick = k
            for c in range(k + 1):
                acc += prob[c]
                if acc >= target:
                    pick = c
                    break
            z[i] = pick
        # cluster values, base mean, base variance
        k = 0
        for j in range(L):
            if z[j] + 1 > k:
                k = z[j] + 1
        for c in range(k):
            prec = 1.0 / tau2
            num = eta / tau2
            for j in range(L):
                if z[j] == c:
                    prec += 1.0 / v[j]
                    num += y[j] / v[j]
            phi[c] = num / prec + np.sqrt(1.0 / prec) * norm_phi[t, c]
        if update_eta:
            prec = 1.0 / s_b + k / tau2
            num = eta_b / s_b
            for c in range(k):
                num += phi[c] / tau2
            eta = num / prec + np.sqrt(1.0 / prec) * norm_eta[t]
        if update_tau2:
            rate = phi2 / 2.0
            for c in range(k):
                rate += 0.5 * (phi[c] - eta) ** 2
            tau2 = rate / gammas[t, k - 1]
        if t >= burn and (t - burn) % thin == 0:
            for j in range(L):
                z_hist[row, j] = z[j]
                theta_hist[row, j] = phi[z[j]]
            eta_hist[row] = eta
            tau2_hist[row] = tau2
            row += 1
    return z_hist, theta_hist, eta_hist, tau2_hist
