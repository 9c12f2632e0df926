"""The DPM posterior by quadrature over (eta, log tau2), exact over partitions.

At fixed base parameters the DPM is a product partition model whose block
scores and per-block moments ``baselines._dpm_blocks`` gives, so the
log-space subset recursion ``kernels.log_partition_sums`` sums over every
partition exactly.  The two base parameters are integrated on a midpoint
grid, which leaves no Monte Carlo error.  Only the ``dpm`` command and the
tests import this module, so other commands do not compile it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .baselines import DpmConfig, _dpm_blocks, _dpm_hyperpriors
from .grid import _TAILS
from .model import SurveyData


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
    block scores of ``baselines._dpm_blocks``, so the subset recursion
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
                                   np.sqrt(var[blocks, cols]), owner, _TAILS)
    ci += mix.shift
    return DpmQuadrature(
        config=cfg,
        resolved=mix.resolved,
        post_mean=tuple(float(x) for x in mix.shift + e1),
        post_sd=tuple(float(x) for x in sd),
        ci_lower=tuple(float(x) for x in ci[:, 0]),
        ci_upper=tuple(float(x) for x in ci[:, 1]),
    )
