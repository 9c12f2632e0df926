"""The Dirichlet process mixture (DPM) baseline: hyperpriors, chain, exact oracle, quadrature.

The DPM clusters sources through a Dirichlet process prior on their
means, with base parameters eta ~ N(eta_b, s_b) and tau2 ~
IG(phi1/2, phi2/2).  The four hyperpriors come from the data and cannot be
set (:func:`_dpm_hyperpriors`): eta_b is the precision-weighted mean of the
estimates, s_b their squared range, phi1 = 2 and phi2 twice their sample
variance; s_b and phi2 are the mean V where the estimates are all equal,
as at L = 1.  What a caller sets is ``io.DpmConfig``.  Like the grid
analysis, every DPM quantity (the hyperpriors, the quadrature box, the
chain and its summaries) is formed about the shift of ``kernels.centre``,
which is added back once.

At fixed base parameters (eta, tau2) the DPM is a product partition model,
whose block scores and per-block moments :func:`_dpm_blocks` gives, so the
log-space subset recursion ``kernels.log_partition_sums`` sums over every
partition exactly.  :func:`dpm_quadrature` integrates the two base
parameters on a midpoint grid over (eta, log tau2), which leaves no Monte
Carlo error; the collapsed Gibbs chain samples them: :func:`dpm_gibbs`
draws its variates and :func:`dpm_chain` runs its sweeps.
The ``dpm`` command reports by quadrature up to ``cli.DPM_QUADRATURE_MAX_L``
sources and from the chain, which is faster there, beyond.  The exact
enumeration oracle :func:`dpm_exact` checks both at fixed base parameters.
Only the ``dpm`` command and the tests import this module, so other
commands do not compile it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DomainError
from .grid import TAILS, interval95
from .io import DpmConfig
from .model import SurveyData
from .partitions import (Partition, PartitionSpace, enumerate_partitions, growth_codes,
                         member_masks)


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


# ---------------------------------------------------------------------------
# the collapsed Gibbs chain (Neal 2000, Algorithm 3)
#
# dpm_chain consumes the variates that dpm_gibbs pre-draws, so the seed
# alone fixes its trajectory: uniforms (T, L) drive the assignment choices,
# norm_phi (T, L) the cluster-value draws, norm_eta (T,) the base-mean draw,
# and gammas[t, k-1] ~ Gamma(phi1/2 + k/2, 1) the precision draw used when k
# clusters are realized at sweep t.  The hyperprior shape phi1 enters only
# through these pre-drawn shapes, so the chain itself does not take it.
# ---------------------------------------------------------------------------

def _flat(a: np.ndarray) -> memoryview:
    """A flat float64 view of ``a`` whose items index as Python floats."""
    return memoryview(np.ascontiguousarray(a, dtype=np.float64)).cast("B").cast("d")


def dpm_chain(y, v, m, eta_b, s_b, phi2, eta0, tau20,
              update_eta, update_tau2, burn, thin,
              uniforms, norm_phi, norm_eta, gammas):
    """Run T sweeps; return the labels, values, eta and tau2 of sweeps burn, burn+thin, ...

    Cluster c is the ascending member list ``clusters[c]``, and source i
    sits in cluster ``label[i]``.  A cluster's posterior mean and variance
    start from 1/tau2 and eta/tau2 and add 1/V_j and y_j/V_j over its
    members in ascending order.  They are cached for the sweep and
    recomputed only for the cluster a source leaves or joins.  The caller
    checks burn >= 0 and thin >= 1.
    """
    T, L = uniforms.shape
    y, v = y.tolist(), v.tolist()
    inv_v = [1.0 / vj for vj in v]
    y_v = [yj / vj for yj, vj in zip(y, v)]
    log_n = [0.0] + [math.log(n) for n in range(1, L + 1)]
    log_m, log2pi = math.log(m), math.log(2.0 * math.pi)
    log, exp, sqrt = math.log, math.exp, math.sqrt
    u_all, nphi_all, neta_all, gam_all = map(_flat, (uniforms, norm_phi, norm_eta, gammas))
    z_hist, theta_hist, eta_hist, tau2_hist = array("q"), array("d"), array("d"), array("d")

    clusters = [[i] for i in range(L)]
    label = list(range(L))
    eta, tau2 = eta0, tau20
    next_keep = burn
    sites = range(L)

    def posterior(members):
        """Mean, variance and log size of a cluster's value given its members."""
        prec, num = prec0, num0
        for j in members:
            prec += inv_v[j]
            num += y_v[j]
        return num / prec, 1.0 / prec, log_n[len(members)]

    for t in range(T):
        u, nphi = u_all[t * L:(t + 1) * L], nphi_all[t * L:(t + 1) * L]
        prec0, num0 = 1.0 / tau2, eta / tau2
        post = [posterior(members) for members in clusters]
        for i in sites:
            # detach i; deleting an emptied cluster shifts later labels down
            c = label[i]
            members = clusters[c]
            members.remove(i)
            if members:
                post[c] = posterior(members)
            else:
                del clusters[c], post[c]
                for j in sites:
                    if label[j] > c:
                        label[j] -= 1
            # posterior predictive weight for each existing cluster, then a new one
            yi, vi = y[i], v[i]
            logw = []
            for mc, sc, log_size in post:
                tot = sc + vi
                logw.append(log_size - 0.5 * (log2pi + log(tot)) - 0.5 * (yi - mc) ** 2 / tot)
            tot = tau2 + vi
            logw.append(log_m - 0.5 * (log2pi + log(tot)) - 0.5 * (yi - eta) ** 2 / tot)
            mx = max(logw)
            acc = []
            s = 0.0
            for lw in logw:
                s += exp(lw - mx)
                acc.append(s)
            # the first cluster whose running sum reaches the target; a NaN opens one
            k = len(clusters)
            target = u[i] * s
            pick = bisect_left(acc, target) if target == target else k
            label[i] = pick
            if pick < k:
                insort(clusters[pick], i)
                post[pick] = posterior(clusters[pick])
            else:
                clusters.append([i])
                post.append(posterior([i]))
        # cluster values, base mean, base variance
        phi = [mc + sqrt(sc) * n for (mc, sc, _), n in zip(post, nphi)]
        k = len(clusters)
        if update_eta:
            prec, num = 1.0 / s_b + k / tau2, eta_b / s_b
            for p in phi:
                num += p / tau2
            eta = num / prec + sqrt(1.0 / prec) * neta_all[t]
        if update_tau2:
            rate = phi2 / 2.0
            for p in phi:
                rate += 0.5 * (p - eta) ** 2
            tau2 = rate / gam_all[t * L + k - 1]
        if t == next_keep:
            next_keep += thin
            z_hist.extend(label)
            theta_hist.extend(map(phi.__getitem__, label))
            eta_hist.append(eta)
            tau2_hist.append(tau2)
    return (np.frombuffer(z_hist, dtype=np.int64).reshape(-1, L),
            np.frombuffer(theta_hist).reshape(-1, L),
            np.frombuffer(eta_hist), np.frombuffer(tau2_hist))


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

    z, theta, eta, tau2 = dpm_chain(
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


# ---------------------------------------------------------------------------
# exact enumeration at fixed (eta, tau2)
# ---------------------------------------------------------------------------

#: Largest L the exact DPM oracle enumerates; :func:`dpm_quadrature` has
#: no such bound of its own.
DPM_EXACT_MAX_L = 8


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
    :func:`dpm_gibbs` and :func:`dpm_quadrature`, with which it
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

# ---------------------------------------------------------------------------
# quadrature over (eta, log tau2)
# ---------------------------------------------------------------------------

#: Nodes per axis of the (eta, log tau2) grid of :func:`dpm_quadrature`.
DPM_NODES = 64
#: Posterior mass the quadrature box may leave out past each end of each axis.
_BOX_TAIL = 1e-9
#: Total block-node mass dropped from each mixture before its quantiles are solved.
_DROP_MASS = 1e-12


def _midpoints(lo, hi, n: int, widen: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, ...) midpoints of n equal cells over [lo, hi] scaled about its centre by ``widen``.

    Also returns the (...) cell widths.
    """
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    h = widen * (hi - lo) / n
    start = 0.5 * (lo + hi) - 0.5 * n * h
    return start + h * (np.arange(n) + 0.5).reshape((n,) + (1,) * h.ndim), h


def _dpm_axes(t: kernels.SubsetTable, yc: np.ndarray, eta_c: float, res: dict,
              cfg: DpmConfig, n: int, widen: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (C,) eta less the shift, tau2 and log node weight of the quadrature grid.

    A free axis gets n midpoint nodes over a box that leaves at most
    ``_BOX_TAIL`` of the posterior past each end, scaled about its centre
    by ``widen``.  log tau2 = log(phi2/2) - log G with G ~ Gamma(a =
    phi1/2).  Below, the box stops where the Chernoff bound
    (g/a)^a e^(a - g) on P(G > g) reaches the tail.  Above, every
    cluster's marginal falls like 1/tau, so the posterior density of
    log tau2 falls like exp(-(a + 1/2) log tau2), and the box stops
    log(1/tail) / (a + 1/2) past log(phi2/2).

    eta gets its own box in each tau2 column, about the shift of ``t``,
    the delta2 = 0 subset table: ``yc`` are the estimates and ``eta_c``
    is eta_b, both less that shift.  Given tau2 and a partition, eta is
    normal.  Its mean lies between eta_c and a precision-weighted mean of
    yc.  Its variance is at most min(s_b, 1/A + tau2), where A = sum 1/V_i
    is the table's full-set row.  So the box spans [min(eta_c, min yc),
    max(eta_c, max yc)] widened by z = sqrt(2 log(1/tail)) such SDs each
    way, which is at least 2 z SDs wide.  A node weighs its prior density
    in (eta, log tau2), Jacobian included, times its cell area; a fixed
    parameter is one node of weight 1.
    """
    if cfg.fixed_tau2 is not None:
        log_t, lw_t = np.array([math.log(cfg.fixed_tau2)]), np.zeros(1)
    else:
        a, b = res["phi1"] / 2.0, res["phi2"] / 2.0
        g = a + math.log(1.0 / _BOX_TAIL)
        for _ in range(50):                 # fixed point of g = a + log(1/tail) + a log(g/a)
            g = a + math.log(1.0 / _BOX_TAIL) + a * math.log(g / a)
        log_t, h = _midpoints(math.log(b) - math.log(g),
                              math.log(b) + math.log(1.0 / _BOX_TAIL) / (a + 0.5), n, widen)
        lw_t = -a * log_t - b * np.exp(-log_t) + math.log(h)
    tau2 = np.exp(log_t)
    if cfg.fixed_eta is not None:
        eta, lw = np.full((1, tau2.size), cfg.fixed_eta - t.shift), lw_t[None, :]
    else:
        sd = np.sqrt(np.minimum(res["s_b"], t.terms.inv_a[-1, 0] + tau2))
        sd *= math.sqrt(2.0 * math.log(1.0 / _BOX_TAIL))
        eta, h = _midpoints(min(eta_c, yc.min()) - sd, max(eta_c, yc.max()) + sd, n, widen)
        lw = -0.5 * (eta - eta_c) ** 2 / res["s_b"] + (lw_t + np.log(h))[None, :]
    return eta.ravel(), np.broadcast_to(tau2, eta.shape).ravel(), lw.ravel()


class _DpmMixture(NamedTuple):
    """The DPM posterior on the quadrature grid: every (block, node) component."""

    resolved: dict
    shift: float             # the subset table's shift; means are taken about it
    mass: np.ndarray         # (2^L, C) W[S, node]; row 0 is 0
    mean: np.ndarray         # (2^L, C) cluster-value mean about the shift
    var: np.ndarray          # (2^L, C) cluster-value variance


def _dpm_mixture(data: SurveyData, cfg: DpmConfig, nodes: int, widen: float) -> _DpmMixture:
    """Block masses W[S, node] = p(node) phi(S) Z(full - S) / Z(full) on the grid.

    The grid is :func:`_dpm_axes` with ``nodes`` per free axis and its box
    scaled by ``widen``.  A node's mass p(node) is its prior weight times
    Z(full) from :func:`kernels.log_partition_sums`; W is the posterior
    probability that S is a cluster and the base parameters are the
    node's, so over the S holding any one source it sums to 1.
    """
    res, _, yc, eta_c = _dpm_hyperpriors(data, cfg.m)
    t = kernels.subset_table(data.y_hat, data.v, np.zeros(1))
    eta, tau2, log_node = _dpm_axes(t, yc, eta_c, res, cfg, nodes, widen)
    score, mean, var = _dpm_blocks(t, eta, tau2, res["m"])
    lz = kernels.log_partition_sums(score)
    log_node += lz[-1]
    log_node -= log_node.max()
    p = np.exp(log_node)
    p /= p.sum()
    w = score
    w += lz[::-1]                        # row S of lz[::-1] is log Z(full - S)
    w -= lz[-1]
    np.exp(w, out=w)
    w *= p
    w[0] = 0.0
    return _DpmMixture(resolved=res, shift=t.shift, mass=w, mean=mean, var=var)


@dataclass(frozen=True)
class DpmQuadrature:
    """DPM posterior summary by quadrature over (eta, log tau2), exact over partitions."""

    config: DpmConfig
    resolved: dict
    post_mean: tuple[float, ...]
    post_sd: tuple[float, ...]
    ci_lower: tuple[float, ...]
    ci_upper: tuple[float, ...]


def dpm_quadrature(data: SurveyData, cfg: DpmConfig) -> DpmQuadrature:
    """The DPM posterior of each survey's cluster value, without Monte Carlo error.

    At fixed (eta, tau2) the DPM is a product partition model with the
    block scores of :func:`_dpm_blocks`, so the subset recursion
    sums over every partition exactly.  The base parameters are integrated
    on the midpoint grid of :func:`_dpm_axes`, ``DPM_NODES`` per free axis,
    and :func:`_dpm_mixture` gives the block masses W[S, node].  Reads
    neither the chain settings nor the seed of ``cfg``.
    """
    return _summarize(cfg, _dpm_mixture(data, cfg, DPM_NODES, 1.0))


def _summarize(cfg: DpmConfig, mix: _DpmMixture) -> DpmQuadrature:
    """Each survey's mean, SD and 95% interval from its mixture over (S holding it, node).

    Means and SDs mix the per-block moments with weights W, the SDs about
    each survey's own mean.  The interval is solved by
    :func:`kernels.mixture_quantiles` after dropping the lightest
    components, at most ``_DROP_MASS`` of each mixture in all.
    """
    w, mean, var = mix.mass, mix.mean, mix.var
    l = w.shape[0].bit_length() - 1
    held = kernels.holders(l)
    e1 = np.einsum("sc,sc->s", w, mean)[held].sum(axis=1)
    sd = np.sqrt([np.einsum("hc,hc->", w[rows], var[rows] + (mean[rows] - mu) ** 2)
                  for rows, mu in zip(held, e1)])
    blocks, cols = np.nonzero(~kernels.negligible(w, _DROP_MASS))
    owner, k = np.nonzero(kernels.membership(l)[:, blocks])   # by source
    blocks, cols = blocks[k], cols[k]
    ci = kernels.mixture_quantiles(w[blocks, cols], mean[blocks, cols],
                                   np.sqrt(var[blocks, cols]), owner, TAILS)
    ci += mix.shift
    return DpmQuadrature(
        config=cfg,
        resolved=mix.resolved,
        post_mean=tuple(float(x) for x in mix.shift + e1),
        post_sd=tuple(float(x) for x in sd),
        ci_lower=tuple(float(x) for x in ci[:, 0]),
        ci_upper=tuple(float(x) for x in ci[:, 1]),
    )
