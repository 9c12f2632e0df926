import math
import re
from fractions import Fraction

import numpy as np
import pytest

from uncpool import (DomainError, DpmConfig, DpmDraws, SurveyData, build_grid, cluster_stats,
                     dpm_exact, dpm_gibbs, dpm_partition_prior, dpm_quadrature,
                     enumerate_partitions, evaluate_joint, kernels, marginal_delta2, pool_all)
from uncpool.baselines import _dpm_blocks
from uncpool.kernels import holders
from uncpool.quadrature import DPM_NODES, _dpm_mixture, _summarize

from conftest import make_dixie, make_orange


# ---------------------------------------------------------------------------
# complete pooling
# ---------------------------------------------------------------------------

def test_pool_all_equal_estimates_recover_the_constant():
    data = SurveyData(["a", "b", "c"], [0.42, 0.42, 0.42], [0.01, 0.002, 0.03])
    pa = pool_all(data, build_grid(200), b=2000, seed=0)
    assert pa.mean == pytest.approx(0.42, abs=1e-12)
    assert pa.sd > 0
    assert pa.interval[0] < pa.mean < pa.interval[1]


def test_pool_all_requires_two_sources():
    data = SurveyData(["a"], [0.3], [0.01])
    with pytest.raises(DomainError):
        pool_all(data, build_grid(100))


def test_pool_all_matches_cluster_stats_mixture():
    # the common mean mixes the all-in-one cluster's conditional over p(j)
    data = make_dixie(0.5)
    grid = build_grid(300)
    jp = evaluate_joint(data, enumerate_partitions(3), grid)
    weights = marginal_delta2(jp)
    # conditional on delta2, nu ~ N(mu_hat, delta2 / sum(lam)) for the single cluster
    stats = [cluster_stats(data, range(3), float(d2)) for d2 in grid.deltas2]
    mean_c = np.array([st.mu_hat for st in stats])
    var_c = grid.deltas2 / np.array([st.lam_sum for st in stats])
    expect_mean = float((weights * mean_c).sum())
    expect_sd = math.sqrt(float((weights * (var_c + mean_c ** 2)).sum()) - expect_mean ** 2)
    for pa in (pool_all(data, grid, b=2000, seed=0), pool_all(data, grid, b=2000, seed=0, jp=jp)):
        assert pa.mean == pytest.approx(expect_mean, abs=1e-10)
        assert pa.sd == pytest.approx(expect_sd, abs=1e-10)


def test_pool_all_rejects_jp_from_another_grid():
    data = make_dixie(1.0)
    jp = evaluate_joint(data, enumerate_partitions(3), build_grid(300))
    with pytest.raises(DomainError, match="grid"):
        pool_all(data, build_grid(200), jp=jp)


@pytest.mark.parametrize("b", [0, -3])
def test_pool_all_rejects_bad_draw_count(b):
    with pytest.raises(DomainError, match="draw count"):
        pool_all(make_dixie(1.0), build_grid(100), b=b)


def test_pool_all_interval_reproducible():
    data = make_dixie(1.0)
    grid = build_grid(200)
    a = pool_all(data, grid, b=3000, seed=5)
    b = pool_all(data, grid, b=3000, seed=5)
    assert a.interval == b.interval


# ---------------------------------------------------------------------------
# DPM partition prior
# ---------------------------------------------------------------------------

def cluster_count_probs(l: int, m: float) -> dict[int, float]:
    space = enumerate_partitions(l)
    out: dict[int, float] = {}
    for p in space.partitions:
        out[p.d] = out.get(p.d, 0.0) + dpm_partition_prior(p, m)
    return out


def test_dpm_prior_l3_m1_exact():
    space = enumerate_partitions(3)
    probs = {p.notation(): dpm_partition_prior(p, 1.0) for p in space.partitions}
    assert probs["{1,2,3}"] == 2.0 / 6.0
    assert probs["{1,2}|{3}"] == 1.0 / 6.0
    assert probs["{1}|{2}|{3}"] == 1.0 / 6.0
    by_k = cluster_count_probs(3, 1.0)
    assert by_k[1] == 2.0 / 6.0
    assert abs(by_k[2] - 3.0 / 6.0) < 1e-15
    assert by_k[3] == 1.0 / 6.0


def test_dpm_prior_l3_m3_exact():
    by_k = cluster_count_probs(3, 3.0)
    assert by_k[1] == 2.0 / 20.0
    assert abs(by_k[2] - 9.0 / 20.0) < 1e-15
    assert by_k[3] == 9.0 / 20.0


def test_dpm_prior_l3_fractions_match_rational_arithmetic():
    # independent rational-arithmetic oracle
    for m_num, m_den in ((1, 3), (1, 1), (3, 1), (9, 1)):
        m = Fraction(m_num, m_den)
        space = enumerate_partitions(3)
        total = Fraction(0)
        for p in space.partitions:
            k = p.d
            num = m ** (k - 1) * Fraction(
                int(np.prod([math.factorial(len(c) - 1) for c in p.clusters]))
            )
            den = (m + 1) * (m + 2)
            frac = num / den
            total += frac
            assert dpm_partition_prior(p, float(m)) == pytest.approx(float(frac), rel=1e-14)
        assert total == 1


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("m", [1 / 3, 1.0, 3.0, 9.0])
def test_dpm_prior_normalizes(l, m):
    total = sum(dpm_partition_prior(p, m) for p in enumerate_partitions(l).partitions)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_dpm_prior_rejects_bad_m():
    p = enumerate_partitions(2).partitions[0]
    with pytest.raises(DomainError):
        dpm_partition_prior(p, 0.0)


# ---------------------------------------------------------------------------
# exact enumeration oracle
# ---------------------------------------------------------------------------

def test_dpm_exact_single_source():
    data = SurveyData(["a"], [0.3], [0.01])
    res = dpm_exact(data, eta=0.3, tau2=0.02, m=1.0)
    assert res.probs == pytest.approx([1.0], abs=1e-14)


def test_dpm_exact_two_identical_surveys_matches_hand_computation():
    from scipy.stats import multivariate_normal, norm

    y, v, eta, tau2, m = 0.3, 0.01, 0.25, 0.02, 50.0
    data = SurveyData(["a", "b"], [y, y], [v, v])
    res = dpm_exact(data, eta=eta, tau2=tau2, m=m)
    # separate clusters: prior m/(m+1), each observation marginally N(eta, tau2+v)
    w_split = m / (m + 1) * norm.pdf(y, eta, math.sqrt(tau2 + v)) ** 2
    # one cluster: prior 1/(m+1), jointly normal with shared-atom covariance
    cov = np.array([[tau2 + v, tau2], [tau2, tau2 + v]])
    w_join = 1 / (m + 1) * multivariate_normal.pdf([y, y], mean=[eta, eta], cov=cov)
    expect_split = w_split / (w_split + w_join)
    split_index = [p.d for p in res.space.partitions].index(2)
    assert res.probs[split_index] == pytest.approx(expect_split, rel=1e-10)


def test_dpm_exact_symmetry_under_relabeling():
    data = SurveyData(["a", "b", "c"], [0.2, 0.5, 0.2], [0.01, 0.01, 0.01])
    res = dpm_exact(data, eta=0.3, tau2=0.05, m=2.0)
    by_notation = {p.notation(): w for p, w in zip(res.space.partitions, res.probs)}
    # surveys 1 and 3 are exchangeable here
    assert by_notation["{1,2}|{3}"] == pytest.approx(by_notation["{1}|{2,3}"], rel=1e-10)
    assert res.post_mean[0] == pytest.approx(res.post_mean[2], abs=1e-12)


def brute_force_dpm(data, eta, tau2, m):
    """Partition posterior and survey moments from dense per-cluster normals."""
    from scipy.stats import multivariate_normal

    space = enumerate_partitions(data.l)
    logw = np.empty(space.g)
    means = np.empty((space.g, data.l))
    variances = np.empty((space.g, data.l))
    for g, p in enumerate(space.partitions):
        logw[g] = math.log(dpm_partition_prior(p, m))
        for members in p.clusters:
            mem = list(members)
            cov = np.diag(data.v[mem]) + tau2
            logw[g] += multivariate_normal.logpdf(data.y_hat[mem], mean=np.full(len(mem), eta),
                                                  cov=cov)
            prec = 1.0 / tau2 + (1.0 / data.v[mem]).sum()
            means[g, mem] = (eta / tau2 + (data.y_hat[mem] / data.v[mem]).sum()) / prec
            variances[g, mem] = 1.0 / prec
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mean = w @ means
    return w, mean, np.sqrt(w @ (variances + (means - mean) ** 2))


@pytest.mark.parametrize("l", [1, 2, 3, 5])
def test_dpm_exact_matches_dense_brute_force(l):
    rng = np.random.default_rng(20 + l)
    data = SurveyData([f"s{i}" for i in range(l)], rng.normal(0.3, 0.1, size=l),
                      rng.uniform(0.01, 0.1, size=l) ** 2)
    eta, tau2, m = 0.28, 0.004, 1.5
    probs, mean, sd = brute_force_dpm(data, eta, tau2, m)
    res = dpm_exact(data, eta=eta, tau2=tau2, m=m)
    assert np.max(np.abs(res.probs - probs)) < 1e-12
    assert np.max(np.abs(res.post_mean - mean)) < 1e-12
    assert np.max(np.abs(res.post_sd - sd)) < 1e-12


@pytest.mark.parametrize("shift", [1e3, 1e6])
def test_dpm_exact_translation_invariance(shift):
    data = make_dixie(1.0)
    moved = SurveyData(data.labels, data.y_hat + shift, data.v)
    a = dpm_exact(data, eta=0.31, tau2=0.05 ** 2, m=1.0)
    b = dpm_exact(moved, eta=0.31 + shift, tau2=0.05 ** 2, m=1.0)
    assert np.max(np.abs(a.probs - b.probs)) < 1e-8
    assert np.max(np.abs(a.post_mean - (b.post_mean - shift))) < 1e-8
    assert np.max(np.abs(a.post_sd - b.post_sd)) < 1e-8


@pytest.mark.parametrize("m", [0.0, -1.0])
def test_dpm_exact_rejects_bad_concentration(m):
    with pytest.raises(DomainError):
        dpm_exact(make_dixie(1.0), eta=0.31, tau2=0.0025, m=m)


def test_dpm_exact_enumeration_bound():
    rng = np.random.default_rng(0)
    data = SurveyData([f"s{i}" for i in range(9)], rng.normal(size=9), np.ones(9))
    with pytest.raises(DomainError):
        dpm_exact(data, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# quadrature over (eta, log tau2)
# ---------------------------------------------------------------------------

PANELS = [make_dixie(k) for k in (0.5, 1.0, 2.0)] + [make_orange(s) for s in (0.036, 0.089, 0.179)]


def reported(post):
    return np.array([post.post_mean, post.post_sd, post.ci_lower, post.ci_upper])


def tight_data(l):
    """L sources with SEs of 0.002: merging two of them at a bad node costs hundreds of nats."""
    rng = np.random.default_rng(60 + l)
    return SurveyData([f"s{i}" for i in range(l)], rng.normal(0.3, 0.1, size=l),
                      np.full(l, 0.002 ** 2))


@pytest.mark.parametrize("l", [3, 5, 8])
def test_dpm_quadrature_at_one_node_matches_exact_enumeration(l):
    data = tight_data(l)
    for eta, tau2, m in [(0.3, 0.004, 3.0), (1.1, 1e-3, 3.0), (-0.5, 1e-6, 0.5), (0.3, 1e3, 1.0)]:
        cfg = DpmConfig(m=m, fixed_eta=eta, fixed_tau2=tau2)
        assert _dpm_mixture(data, cfg, DPM_NODES, 1.0).mass.shape == (1 << l, 1)   # one node
        post = dpm_quadrature(data, cfg)
        exact = dpm_exact(data, eta=eta, tau2=tau2, m=m)
        assert np.max(np.abs(np.array(post.post_mean) - exact.post_mean)) < 1e-12
        assert np.max(np.abs(np.array(post.post_sd) - exact.post_sd)) < 1e-12


def test_the_extreme_node_is_out_of_reach_of_linear_partition_sums():
    # at the node the test above integrates in log space, Z(full) underflows
    # unscaled and overflows once each source's singleton score is divided out
    data = tight_data(8)
    t = kernels.subset_table(data.y_hat, data.v, np.zeros(1))
    score = _dpm_blocks(t, np.array([1.1 - t.shift]), np.array([1e-3]), 3.0)[0]
    gain = score - kernels.membership(8).T @ score[[1 << i for i in range(8)]]
    assert kernels.log_partition_sums(score)[-1, 0] < -746.0     # exp() of it is 0
    assert kernels.log_partition_sums(gain)[-1, 0] > 710.0       # exp() of it is inf
    assert gain.max() > 500.0                                    # one merge alone


def test_dpm_quadrature_converges_in_nodes_and_box():
    cfg = DpmConfig()
    for data in PANELS:
        base = reported(dpm_quadrature(data, cfg))
        finer = reported(_summarize(cfg, _dpm_mixture(data, cfg, 2 * DPM_NODES, 1.0)))
        wider = reported(_summarize(cfg, _dpm_mixture(data, cfg, DPM_NODES, 2.0)))
        assert np.max(np.abs(finer - base)) < 1e-6          # n against 2n
        assert np.max(np.abs(wider - base)) < 1e-6          # the box doubled, n kept


def test_dpm_quadrature_endpoints_solve_the_unpruned_mixture():
    for data in PANELS:
        post = dpm_quadrature(data, DpmConfig())
        mix = _dpm_mixture(data, DpmConfig(), DPM_NODES, 1.0)
        assert np.allclose(kernels.membership(data.l) @ mix.mass.sum(axis=1), 1.0,
                           rtol=0, atol=1e-13)     # each source's mixture weights sum to 1
        for i, rows in enumerate(holders(data.l)):
            w = mix.mass[rows].ravel().tolist()
            m = mix.mean[rows].ravel().tolist()
            s = np.sqrt(mix.var[rows]).ravel().tolist()
            for x, q in ((post.ci_lower[i], 0.025), (post.ci_upper[i], 0.975)):
                z = [(mk - (x - mix.shift)) / (sk * math.sqrt(2.0)) for mk, sk in zip(m, s)]
                f = 0.5 * math.fsum(wk * math.erfc(zk) for wk, zk in zip(w, z))
                assert abs(f - q) < 1e-10


def test_dpm_quadrature_moves_with_a_shift_and_permutes_with_the_sources():
    data = make_orange(0.089)
    # equal estimates take the hyperprior fallbacks, which must not depend on the offset
    equal = SurveyData(["a", "b", "c"], [0.3, 0.3, 0.3], np.array([0.014, 0.028, 0.028]) ** 2)
    for sample in (equal, data):
        base = reported(dpm_quadrature(sample, DpmConfig()))
        moved = SurveyData(sample.labels, sample.y_hat + 1e6, sample.v)
        shifted = reported(dpm_quadrature(moved, DpmConfig()))
        shifted[[0, 2, 3]] -= 1e6
        assert np.max(np.abs(shifted - base)) < 1e-8     # 1e6 carries about 1e-10 of rounding
    # base is now the Orange panel's
    order = [2, 0, 1]
    flipped = SurveyData([data.labels[i] for i in order], data.y_hat[order], data.v[order])
    assert np.max(np.abs(reported(dpm_quadrature(flipped, DpmConfig())) - base[:, order])) < 1e-12


def test_dpm_quadrature_agrees_with_a_long_chain():
    data = make_dixie(1.0)
    post = dpm_quadrature(data, DpmConfig())
    chain = dpm_gibbs(data, DpmConfig(iterations=22000, burn_in=2000, seed=11))
    # over chain seeds 1-5 the moments differed by at most 3e-4, the endpoints by 1e-3
    assert np.max(np.abs(np.array(post.post_mean) - chain.post_mean)) < 1e-3
    assert np.max(np.abs(np.array(post.post_sd) - chain.post_sd)) < 1e-3
    assert np.max(np.abs(np.array(post.ci_lower) - chain.ci_lower)) < 5e-3
    assert np.max(np.abs(np.array(post.ci_upper) - chain.ci_upper)) < 5e-3


#: A bad value of each DpmConfig field, and the message its config is refused with.
BAD_DPM_CONFIGS = (
    ({"burn_in": -5}, "burn_in must be >= 0, got -5"),
    ({"iterations": 100, "burn_in": 100}, "iterations must exceed burn_in"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"thin": 0}, "thin must be >= 1"),
    ({"m": 0.0}, "concentration m must be > 0"),
    ({"m": -1.0}, "concentration m must be > 0"),
    ({"m": np.inf}, "hyperprior input m=inf is not usable"),
    ({"m": np.nan}, "hyperprior input m=nan is not usable"),
    ({"fixed_tau2": 0.0}, "fixed_tau2 must be finite and > 0, got 0.0"),
    ({"fixed_tau2": np.inf}, "fixed_tau2 must be finite and > 0, got inf"),
    ({"fixed_eta": np.nan}, "fixed_eta must be finite, got nan"),
)


def test_dpm_quadrature_validates_like_the_chain():
    # the config refuses a bad field when it is built, before either method runs
    for kwargs, message in BAD_DPM_CONFIGS:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DpmConfig(**kwargs)
    # the chain settings and the seed are checked but not read
    data = make_dixie(1.0)
    assert (dpm_quadrature(data, DpmConfig(seed=0, iterations=50, burn_in=5))
            .post_mean == dpm_quadrature(data, DpmConfig(seed=7)).post_mean)


def test_dpm_hyperprior_fallbacks_and_overflow():
    short = DpmConfig(iterations=30, burn_in=10)
    v = np.array([0.01, 0.002, 0.03])
    # np.var of three equal values is exactly 0 at 0.42, but 1.8e-32 at 0.7, 4.7e-30 at
    # 12.3 and 2.0e-20 at 1e6 + 0.3, which as phi2 would pin tau2 near 0
    for y in (0.42, 0.7, 12.3, 1e6 + 0.3):
        equal = SurveyData(["a", "b", "c"], [y, y, y], v)
        for res in (dpm_gibbs(equal, short).resolved, dpm_quadrature(equal, short).resolved):
            assert res["s_b"] == res["phi2"] == float(v.mean())   # zero range and variance
    single = SurveyData(["a"], [0.3], [0.01])
    for res in (dpm_gibbs(single, short).resolved, dpm_quadrature(single, short).resolved):
        assert res["phi2"] == 0.01                            # no sample variance at L = 1
    # estimates near 1e155 are finite, but their squared range is not
    huge = SurveyData(["a", "b"], [-1e155, 1e155], [1.0, 1.0])
    for method in (dpm_gibbs, dpm_quadrature):
        with pytest.raises(DomainError, match="^hyperprior input s_b=inf is not usable$"):
            method(huge, short)


# ---------------------------------------------------------------------------
# collapsed Gibbs sampler
# ---------------------------------------------------------------------------

def test_dpm_gibbs_single_source_conjugate_limit():
    # fixed, very diffuse base: posterior mean approaches the observation
    data = SurveyData(["a"], [0.37], [0.01])
    cfg = DpmConfig(m=1.0, iterations=4000, burn_in=500, seed=3,
                    fixed_eta=0.0, fixed_tau2=1e6)
    draws = dpm_gibbs(data, cfg)
    prec = 1 / 1e6 + 1 / 0.01
    expect = (0.0 / 1e6 + 0.37 / 0.01) / prec
    assert draws.post_mean[0] == pytest.approx(expect, abs=4 * math.sqrt(1 / prec / 3500))


def frequencies_loop(assignments, space):
    """Partition frequencies by canonicalising each draw's labels in Python."""
    index = {p.assignment: i for i, p in enumerate(space.partitions)}
    counts = np.zeros(space.g)
    for row in assignments:
        remap: dict[int, int] = {}
        canon = tuple(remap.setdefault(a, len(remap)) for a in row)
        counts[index[canon]] += 1
    return counts / counts.sum()


def test_partition_frequencies_match_the_loop():
    draws = dpm_gibbs(make_dixie(1.0), DpmConfig(iterations=1500, burn_in=500, seed=4))
    space = enumerate_partitions(3)
    assert np.array_equal(draws.partition_frequencies(space),
                          frequencies_loop(draws.assignments, space))
    # compact labels 0..k-1 in any order, not only in order of first occurrence
    rng = np.random.default_rng(5)
    rows = np.array([np.unique(rng.integers(0, 5, size=5), return_inverse=True)[1]
                     for _ in range(400)])
    space = enumerate_partitions(5)
    fake = type("Draws", (), {"assignments": rows})()
    assert np.array_equal(DpmDraws.partition_frequencies(fake, space),
                          frequencies_loop(rows, space))


def test_dpm_gibbs_matches_exact_enumeration():
    data = make_dixie(0.5)
    eta, tau2, m = 0.31, 0.05 ** 2, 1.0
    exact = dpm_exact(data, eta=eta, tau2=tau2, m=m)
    cfg = DpmConfig(m=m, iterations=52000, burn_in=2000, seed=7,
                    fixed_eta=eta, fixed_tau2=tau2)
    draws = dpm_gibbs(data, cfg)
    freq = draws.partition_frequencies(exact.space)
    tv = 0.5 * np.abs(freq - exact.probs).sum()
    assert tv < 0.02


def test_dpm_gibbs_validation():
    with pytest.raises(DomainError):
        DpmConfig(iterations=100, burn_in=100)
    with pytest.raises(DomainError):
        DpmConfig(m=-1.0)
    with pytest.raises(DomainError):
        DpmConfig(thin=0)
    # a negative burn-in would keep history rows that no sweep writes
    with pytest.raises(DomainError, match="burn_in"):
        DpmConfig(iterations=50, burn_in=-5)
    with pytest.raises(DomainError, match="seed"):
        DpmConfig(iterations=50, burn_in=5, seed=-1)


def test_dpm_gibbs_reproducible_and_seed_sensitive():
    data = make_dixie(1.0)
    a = dpm_gibbs(data, DpmConfig(iterations=800, burn_in=200, seed=1))
    b = dpm_gibbs(data, DpmConfig(iterations=800, burn_in=200, seed=1))
    c = dpm_gibbs(data, DpmConfig(iterations=800, burn_in=200, seed=2))
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_dpm_gibbs_exchangeable_over_relabeling():
    # mirror-symmetric data: swapping the outer surveys should leave the
    # summary statistically unchanged
    data = SurveyData(["a", "b", "c"], [0.2, 0.35, 0.5], [0.01, 0.01, 0.01])
    flipped = SurveyData(["c", "b", "a"], [0.5, 0.35, 0.2], [0.01, 0.01, 0.01])
    cfg = DpmConfig(m=1.0, iterations=21000, burn_in=1000, seed=4,
                    fixed_eta=0.35, fixed_tau2=0.04)
    d1 = dpm_gibbs(data, cfg)
    d2 = dpm_gibbs(flipped, cfg)
    mc_tol = 4 * max(d1.post_sd) / math.sqrt(2000)  # generous: draws autocorrelate
    assert d1.post_mean[0] == pytest.approx(d2.post_mean[2], abs=mc_tol)
    assert d1.post_mean[2] == pytest.approx(d2.post_mean[0], abs=mc_tol)


def test_dpm_gibbs_assignments_are_valid_partitions():
    data = make_dixie(2.0)
    draws = dpm_gibbs(data, DpmConfig(iterations=600, burn_in=100, seed=0))
    for row in draws.assignments[::50]:
        labels = set(int(x) for x in row)
        assert labels == set(range(len(labels)))
