import math
from fractions import Fraction

import numpy as np
import pytest

from uncpool import (DomainError, DpmConfig, SurveyData, build_grid, cluster_stats,
                     dpm_exact, dpm_gibbs, dpm_partition_prior, enumerate_partitions,
                     evaluate_joint, marginal_delta2, pool_all)

from conftest import make_dixie


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


def test_pool_all_restricted_space_consistency():
    # forcing the single all-in-one partition: the delta2 mixing weights must
    # equal the restricted grid posterior's delta2 marginal
    data = make_dixie(0.5)
    grid = build_grid(300)
    space_all = enumerate_partitions(3)
    one = space_all.partitions[:1]
    from uncpool.partitions import PartitionSpace

    restricted = PartitionSpace(l=3, partitions=tuple(one))
    jp = evaluate_joint(data, restricted, grid)
    weights = marginal_delta2(jp)
    # conditional on delta2, nu ~ N(mu_hat, delta2 / sum(lam)) for the single cluster
    stats = [cluster_stats(data, range(3), float(d2)) for d2 in grid.deltas2]
    mean_c = np.array([st.mu_hat for st in stats])
    var_c = grid.deltas2 / np.array([st.lam_sum for st in stats])
    expect_mean = float((weights * mean_c).sum())
    expect_sd = math.sqrt(float((weights * (var_c + mean_c ** 2)).sum()) - expect_mean ** 2)
    pa = pool_all(data, grid, b=2000, seed=0, space=restricted)
    assert pa.mean == pytest.approx(expect_mean, abs=1e-10)
    assert pa.sd == pytest.approx(expect_sd, abs=1e-10)
    # and the restricted delta2 posterior differs from the partition-averaged one
    jp_full = evaluate_joint(data, space_all, grid)
    assert not np.allclose(weights, marginal_delta2(jp_full), atol=1e-4)


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
    data = make_dixie(1.0)
    with pytest.raises(DomainError):
        dpm_gibbs(data, DpmConfig(iterations=100, burn_in=100))
    with pytest.raises(DomainError):
        dpm_gibbs(data, DpmConfig(m=-1.0))
    with pytest.raises(DomainError):
        dpm_gibbs(data, DpmConfig(s_b=np.inf))
    with pytest.raises(DomainError):
        dpm_gibbs(data, DpmConfig(thin=0))


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
