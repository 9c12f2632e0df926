import math

import numpy as np
import pytest

from uncpool import (DomainError, Partition, SurveyData, cluster_stats,
                     conditional_moments, enumerate_partitions, log_inv_beta_prior,
                     log_joint_kernel, log_partition_likelihood, q_statistic, shrinkage)


def random_data(rng, l):
    return SurveyData(
        labels=[f"s{i}" for i in range(l)],
        y_hat=rng.normal(0.3, 0.1, size=l),
        v=rng.uniform(0.005, 0.05, size=l) ** 2,
    )


def test_survey_data_equality():
    a = SurveyData(["a", "b"], [0.2, 0.5], [0.01, 0.02])
    assert (a == SurveyData(["a", "b"], [0.2, 0.5], [0.01, 0.02])) is True
    assert (a == SurveyData(["a", "b"], [0.2, 0.5], [0.01, 0.03])) is False
    assert (a == SurveyData(["a", "c"], [0.2, 0.5], [0.01, 0.02])) is False
    assert (a == SurveyData(["a", "b"], [0.2, 0.5], [0.01, 0.02], source_form="binomial")) is False
    assert a != "a"


# ---------------------------------------------------------------------------
# shrinkage and cluster statistics
# ---------------------------------------------------------------------------

def test_shrinkage_examples():
    assert shrinkage(2.0, 2.0) == 0.5
    assert shrinkage(0.0, 1.3) == 0.0
    assert shrinkage(3.0, 1.0) == 0.75


def test_shrinkage_monotone_in_delta2():
    vals = [shrinkage(d2, 0.01) for d2 in np.logspace(-6, 4, 30)]
    assert all(0 < x < 1 for x in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_shrinkage_domain():
    with pytest.raises(DomainError):
        shrinkage(-1e-9, 1.0)
    with pytest.raises(DomainError):
        shrinkage(1.0, 0.0)


def test_cluster_stats_singleton():
    data = SurveyData(["a", "b"], [0.2, 0.5], [0.01, 0.02])
    st = cluster_stats(data, [1], delta2=0.03)
    assert st.mu_hat == pytest.approx(0.5, abs=1e-15)
    assert st.lam_sum == pytest.approx(0.03 / 0.05, abs=1e-15)


def test_cluster_stats_equal_weights():
    data = SurveyData(["a", "b"], [0.2, 0.4], [0.01, 0.01])
    for d2 in (1e-6, 0.01, 5.0):
        st = cluster_stats(data, [0, 1], delta2=d2)
        assert st.mu_hat == pytest.approx(0.3, abs=1e-14)


def test_cluster_stats_arithmetic_example():
    # equal variances, delta2 = V: both weights 1/2, mean the plain average
    data = SurveyData(["a", "b"], [0.254, 0.359], [0.014 ** 2, 0.014 ** 2])
    st = cluster_stats(data, [0, 1], delta2=0.014 ** 2)
    assert st.lam == pytest.approx([0.5, 0.5], abs=1e-15)
    assert st.mu_hat == pytest.approx(0.3065, abs=1e-12)


def test_cluster_stats_domain():
    data = SurveyData(["a"], [0.2], [0.01])
    with pytest.raises(DomainError):
        cluster_stats(data, [], 0.01)
    with pytest.raises(DomainError):
        cluster_stats(data, [0], 0.0)


def test_cluster_mean_within_member_range():
    rng = np.random.default_rng(5)
    for _ in range(30):
        data = random_data(rng, 4)
        st = cluster_stats(data, [0, 1, 2, 3], delta2=float(rng.uniform(1e-5, 1.0)))
        assert data.y_hat.min() - 1e-12 <= st.mu_hat <= data.y_hat.max() + 1e-12


# ---------------------------------------------------------------------------
# conditional moments
# ---------------------------------------------------------------------------

def test_singletons_recover_observed_moments():
    rng = np.random.default_rng(0)
    data = random_data(rng, 4)
    p = Partition((0, 1, 2, 3))
    for d2 in np.logspace(-8, 6, 15):
        cm = conditional_moments(data, p, float(d2))
        assert np.max(np.abs(cm.mean - data.y_hat)) < 1e-12
        assert np.max(np.abs(cm.cov - np.diag(data.v))) < 1e-12


def test_survey_one_row_unaffected_by_other_cluster(dixie_panel1):
    # partition {1}|{2,3}: the singleton's row keeps its observed moments
    cm = conditional_moments(dixie_panel1, Partition((0, 1, 1)), delta2=0.0004)
    assert cm.mean[0] == pytest.approx(0.254, abs=1e-13)
    assert cm.cov[0, 0] == pytest.approx(0.014 ** 2, abs=1e-15)
    assert cm.cov[0, 1] == 0.0
    assert cm.cov[0, 2] == 0.0


def test_two_survey_cluster_closed_form():
    v = 0.02
    data = SurveyData(["a", "b"], [0.1, 0.5], [v, v])
    cm = conditional_moments(data, Partition((0, 0)), delta2=v)
    assert cm.mean[0] == pytest.approx(0.75 * 0.1 + 0.25 * 0.5, abs=1e-14)
    assert cm.mean[1] == pytest.approx(0.75 * 0.5 + 0.25 * 0.1, abs=1e-14)
    assert cm.cov[0, 0] == pytest.approx(v * 0.75, abs=1e-14)
    assert cm.cov[0, 1] == pytest.approx(v * 0.25, abs=1e-14)


def conjugate_oracle(data, p, delta2):
    """Brute-force posterior moments via the joint precision of (mu, cluster means)."""
    l = data.l
    mean = np.empty(l)
    cov = np.zeros((l, l))
    for members in p.clusters:
        mem = list(members)
        n = len(mem)
        # precision of (mu_members, nu) under flat prior on nu
        prec = np.zeros((n + 1, n + 1))
        prec[:n, :n] = np.diag(1.0 / data.v[mem] + 1.0 / delta2)
        prec[:n, n] = prec[n, :n] = -1.0 / delta2
        prec[n, n] = n / delta2
        rhs = np.append(data.y_hat[mem] / data.v[mem], 0.0)
        full_cov = np.linalg.inv(prec)
        full_mean = full_cov @ rhs
        mean[mem] = full_mean[:n]
        cov[np.ix_(mem, mem)] = full_cov[:n, :n]
    return mean, cov


def test_conditional_moments_match_conjugate_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        l = int(rng.integers(1, 6))
        data = random_data(rng, l)
        space = enumerate_partitions(l)
        p = space.partitions[int(rng.integers(space.g))]
        d2 = float(rng.uniform(1e-5, 0.05))
        cm = conditional_moments(data, p, d2)
        om, oc = conjugate_oracle(data, p, d2)
        assert np.max(np.abs(cm.mean - om)) < 1e-10
        assert np.max(np.abs(cm.cov - oc)) < 1e-10


def test_cross_cluster_covariance_exactly_zero():
    rng = np.random.default_rng(9)
    data = random_data(rng, 5)
    p = Partition((0, 1, 0, 2, 1))
    cm = conditional_moments(data, p, 0.003)
    for i in range(5):
        for j in range(5):
            if p.assignment[i] != p.assignment[j]:
                assert cm.cov[i, j] == 0.0
    ev = np.linalg.eigvalsh(cm.cov)
    assert ev.min() > -1e-15
    assert np.max(np.abs(cm.cov - cm.cov.T)) == 0.0


# ---------------------------------------------------------------------------
# misfit statistic
# ---------------------------------------------------------------------------

def test_q_all_singletons_zero():
    rng = np.random.default_rng(1)
    data = random_data(rng, 4)
    assert q_statistic(data, Partition((0, 1, 2, 3)), 0.02) == 0.0


def test_q_identical_estimates_contribute_nothing():
    data = SurveyData(["a", "b", "c"], [0.3, 0.3, 0.9], [0.01, 0.04, 0.01])
    q = q_statistic(data, Partition((0, 0, 1)), 0.02)
    assert abs(q) < 1e-20


def test_q_hand_example():
    data = SurveyData(["a", "b"], [0.0, 1.0], [1.0, 1.0])
    assert q_statistic(data, Partition((0, 0)), 1.0) == 0.25


def test_q_never_increases_when_splitting_to_singletons():
    rng = np.random.default_rng(7)
    for _ in range(25):
        data = random_data(rng, 5)
        d2 = float(rng.uniform(1e-4, 0.02))
        p = Partition((0, 0, 1, 1, 0))
        refined = Partition((0, 1, 2, 3, 4))
        assert q_statistic(data, refined, d2) <= q_statistic(data, p, d2) + 1e-15


# ---------------------------------------------------------------------------
# priors and the joint kernel
# ---------------------------------------------------------------------------

def test_inv_beta_prior_values():
    assert log_inv_beta_prior(1.0) == pytest.approx(math.log(0.5), abs=1e-15)
    assert log_inv_beta_prior(3.0) == pytest.approx(math.log(1.0 / (4.0 * math.sqrt(3.0))), abs=1e-14)
    with pytest.raises(DomainError):
        log_inv_beta_prior(0.0)
    with pytest.raises(DomainError):
        log_inv_beta_prior(-1.0)


def test_inv_beta_prior_integral_is_pi():
    from scipy.integrate import quad

    val, err = quad(lambda d2: math.exp(log_inv_beta_prior(d2)), 0.0, np.inf)
    assert val == pytest.approx(math.pi, abs=1e-6)


def test_kernel_translation_invariance():
    rng = np.random.default_rng(11)
    data = random_data(rng, 3)
    space = enumerate_partitions(3)
    for c in (-1.0, 0.37, 10.0):
        shifted = SurveyData(data.labels, data.y_hat + c, data.v)
        for p in space.partitions:
            for d2 in (1e-5, 3e-4, 0.02, 4.0):
                a = log_joint_kernel(data, p, d2, -math.log(5))
                b = log_joint_kernel(shifted, p, d2, -math.log(5))
                assert abs(a - b) < 1e-10


def test_kernel_scale_covariance():
    rng = np.random.default_rng(13)
    data = random_data(rng, 4)
    space = enumerate_partitions(4)
    for c in (0.5, 3.0, 10.0):
        scaled = SurveyData(data.labels, c * data.y_hat, c * c * data.v)
        for p in space.partitions[::3]:
            for d2 in (2e-4, 0.01, 1.5):
                a = log_joint_kernel(data, p, d2, 0.0) - log_inv_beta_prior(d2)
                b = log_joint_kernel(scaled, p, c * c * d2, 0.0) - log_inv_beta_prior(c * c * d2)
                assert abs(a - b) < 1e-10


def test_kernel_decomposition():
    data = SurveyData(["a", "b"], [0.1, 0.2], [0.01, 0.02])
    p = Partition((0, 0))
    val = log_joint_kernel(data, p, 0.05, -0.7)
    assert val == pytest.approx(
        log_inv_beta_prior(0.05) - 0.7 + log_partition_likelihood(data, p, 0.05), abs=1e-14
    )


def test_survey_data_validation():
    with pytest.raises(DomainError):
        SurveyData([], [], [])
    with pytest.raises(DomainError):
        SurveyData(["a"], [np.inf], [0.01])
    with pytest.raises(DomainError):
        SurveyData(["a"], [0.1], [0.0])
    with pytest.raises(DomainError):
        SurveyData(["a", "b"], [0.1], [0.01])
